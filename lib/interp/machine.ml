(* Interpreter for the Fortran subset.

   This is the stand-in for "running CESM on the supercomputer": the same
   source the metagraph is compiled from is executed here, so runtime
   sampling, coverage and ECT statistics are all derived from genuine
   execution of the analyzed code.

   Each machine compiles its program into OCaml closures.  At creation
   it runs the elaboration the old tree-walking interpreter ran —
   imports in [module_order], [use ... only] renames, generic interfaces
   — over slot numbers instead of cells, then allocates the module cells
   and runs the module initializers.  Every name is resolved before its
   code first runs: locals to frame slots, module variables to module-cell
   slots, calls to their callee and intrinsics to their implementation.
   Subprogram bodies are compiled on their first call.

   Machine-level switches reproduce the paper's experimental axes:
   - [prng]: the generator behind the `random_number` intrinsic; swapping
     KISS for MT19937 is the RAND-MT experiment.
   - [fma_for]: per-module fused-multiply-add contraction; evaluating
     a*b+c with [Float.fma] vs mul-then-add reproduces the AVX2/FMA
     sensitivity, and the per-module flag drives Table 1's selective
     disablement.  Read at every call.
   - [hooks]: statement/assignment/call observers used by coverage
     recording, runtime sampling and kernel capture.  Checked at every
     event, so they may be set or cleared at any time. *)

open Rca_fortran
module Obs = Rca_obs.Obs

exception Runtime_error of string

let err fmt = Printf.ksprintf (fun s -> raise (Runtime_error s)) fmt

(* --- values ---------------------------------------------------------------- *)

type arr = { dims : int array; data : float array }

type value =
  | Vreal of float
  | Vint of int
  | Vlog of bool
  | Vstr of string
  | Varr of arr
  | Vderived of (string, value ref) Hashtbl.t

let rec copy_value = function
  | (Vreal _ | Vint _ | Vlog _ | Vstr _) as v -> v
  | Varr a -> Varr { dims = Array.copy a.dims; data = Array.copy a.data }
  | Vderived tbl ->
      let tbl' = Hashtbl.create (Hashtbl.length tbl) in
      Hashtbl.iter (fun k cell -> Hashtbl.replace tbl' k (ref (copy_value !cell))) tbl;
      Vderived tbl'

let as_float = function
  | Vreal f -> f
  | Vint i -> float_of_int i
  | Vlog b -> if b then 1.0 else 0.0
  | Varr _ -> err "array used where a scalar is required"
  | Vstr _ -> err "string used where a number is required"
  | Vderived _ -> err "derived type used where a number is required"

let as_int = function
  | Vint i -> i
  | Vreal f -> int_of_float f
  | v -> err "expected integer, got %s" (match v with Vlog _ -> "logical" | _ -> "non-numeric")

let as_bool = function
  | Vlog b -> b
  | Vint i -> i <> 0
  | _ -> err "expected logical value"

let as_arr = function Varr a -> a | _ -> err "expected an array"

(* L2 norm; the scalar a whole-array assignment reports to the sampling
   hook. *)
let arr_norm a =
  sqrt (Array.fold_left (fun acc x -> acc +. (x *. x)) 0.0 a.data)

let vtrue = Vlog true
let vfalse = Vlog false
let vlog b = if b then vtrue else vfalse

(* --- machines and compiled code ---------------------------------------------- *)

type callable = { c_module : string; c_sub : Ast.subprogram }

type hooks = {
  mutable on_stmt : (string -> string -> int -> unit) option;  (* module sub line *)
  mutable on_assign :
    (module_:string -> sub:string -> line:int -> var:string -> canonical:string ->
     float -> unit)
    option;
  (* fired at subprogram entry, after formals are bound but before local
     allocation: the table holds exactly the formal bindings *)
  mutable on_call : (string -> string -> (string, value ref) Hashtbl.t -> unit) option;
  (* fired at subprogram exit with the full locals table *)
  mutable on_return : (string -> string -> (string, value ref) Hashtbl.t -> unit) option;
  mutable on_outfld : (string -> float -> unit) option;
}

type t = {
  program : Ast.program;
  code : code;
  cells : value ref array;  (* module variables, by cell slot *)
  mutable prng : Rca_rng.Prng.t;
  mutable fma_for : string -> bool;
  hooks : hooks;
  history : (string, float) Hashtbl.t;  (* outfld name -> last value *)
  print_log : Buffer.t;
  mutable steps : int;
  mutable max_steps : int;
  mutable depth : int;
}

(* What running code sees: the machine, its module cells, the frame of the
   running subprogram (one cell per local slot) and its module's FMA flag. *)
and env = { m : t; globals : value ref array; frame : value ref array; fma : bool }

and code = {
  modules : (string, scope) Hashtbl.t;
  n_cells : int;
  inits : (env -> unit) list;  (* module variable initializers, in elaboration order *)
}

(* A module as elaboration leaves it: every visible name mapped to the
   module-cell slot, callable candidates or derived type it denotes. *)
and scope = {
  unit_ : Ast.module_unit;
  vars : (string, int) Hashtbl.t;  (* visible cells: own + imported *)
  own_vars : (string, unit) Hashtbl.t;  (* names declared in this module *)
  visible_subs : (string, proc list) Hashtbl.t;  (* incl. interface candidates *)
  visible_types : (string, Ast.derived_type_def) Hashtbl.t;
  mutable procs : (Ast.subprogram * proc) list;  (* own subprograms *)
}

(* A run executes about a third of the synthetic model's subprograms, so
   each is compiled on its first call.  A machine compiles its own copy of
   the program: see DESIGN.md for why compiled code is not shared. *)
and proc = {
  callable : callable;
  mutable body : body option;
  build : unit -> body;
}

(* A compiled subprogram.  Frame slots: distinct formals first (so a
   caller can bind them before the callee is compiled), then declared
   locals, the function result, and DO variables that become locals when
   their loop first runs. *)
and body = {
  nslots : int;
  slot_names : string array;
  formals : int array;  (* slot of each formal, in argument order *)
  result : int;  (* result slot; -1 for subroutines *)
  run : env -> unit;  (* entry hooks, local allocation, statements, exit hook *)
}

exception Return_exc
exception Exit_exc
exception Cycle_exc

(* A frame or module cell that holds nothing yet.  Never written. *)
let vacant : value ref = ref (Vstr "<vacant>")

(* Nested calls beyond this depth are runaway recursion: the synthetic
   model nests fewer than ten deep. *)
let max_call_depth = 10_000

(* Largest array an elaborated declaration may allocate, in elements. *)
let max_array_elems = 50_000_000

let intrinsic_functions =
  [
    "abs"; "sqrt"; "exp"; "log"; "log10"; "min"; "max"; "mod"; "sign"; "sin";
    "cos"; "tan"; "tanh"; "sum"; "maxval"; "minval"; "size"; "real"; "int";
    "floor"; "nint"; "epsilon"; "tiny"; "huge"; "merge"; "dble";
  ]

let is_intrinsic name = List.mem name intrinsic_functions

(* --- runtime helpers ------------------------------------------------------------ *)

(* Executed before every statement, including RETURN, EXIT and CYCLE. *)
let tick env mname sname line =
  let m = env.m in
  m.steps <- m.steps + 1;
  if m.steps > m.max_steps then err "statement budget exceeded (possible runaway loop)";
  match m.hooks.on_stmt with Some hook -> hook mname sname line | None -> ()

let flat_index a idx =
  let nd = Array.length a.dims in
  if Array.length idx <> nd then
    err "rank mismatch: %d indices for rank-%d array" (Array.length idx) nd;
  let flat = ref 0 and stride = ref 1 in
  for d = 0 to nd - 1 do
    let i = idx.(d) in
    if i < 1 || i > a.dims.(d) then
      err "index %d out of bounds 1..%d in dimension %d" i a.dims.(d) (d + 1);
    flat := !flat + ((i - 1) * !stride);
    stride := !stride * a.dims.(d)
  done;
  !flat

(* Flat indices selected by a (index | full-range) vector.  The first
   dimension is the outermost loop. *)
let slice_indices a spec =
  let nd = Array.length a.dims in
  if Array.length spec <> nd then err "rank mismatch in array section";
  let rec build d acc_flat stride =
    if d = nd then [ acc_flat ]
    else
      match spec.(d) with
      | `At i ->
          if i < 1 || i > a.dims.(d) then err "section index out of bounds";
          build (d + 1) (acc_flat + ((i - 1) * stride)) (stride * a.dims.(d))
      | `All ->
          List.concat_map
            (fun i -> build (d + 1) (acc_flat + ((i - 1) * stride)) (stride * a.dims.(d)))
            (List.init a.dims.(d) (fun k -> k + 1))
  in
  Array.of_list (build 0 0 1)

let section a idx = Varr { dims = [| Array.length idx |]; data = Array.map (fun i -> a.data.(i)) idx }

(* Integer power by squaring: the same value as repeated multiplication,
   since wrap-around multiplication is associative. *)
let ipow x y =
  let rec go acc b e =
    if e = 0 then acc else go (if e land 1 = 1 then acc * b else acc) (b * b) (e lsr 1)
  in
  go 1 x y

(* Element count of an array declaration, refused before it overflows. *)
let array_total extents =
  List.iter (fun e -> if e < 0 then err "negative array extent %d" e) extents;
  if List.mem 0 extents then 0
  else
    List.fold_left
      (fun acc e ->
        if acc > max_array_elems / e then
          err "unreasonable array size (%s)" (String.concat " x " (List.map string_of_int extents));
        acc * e)
      1 extents

let arith_slow fop va vb = Vreal (fop (as_float va) (as_float vb))

let add_v va vb =
  match (va, vb) with
  | Vreal x, Vreal y -> Vreal (x +. y)
  | Vint x, Vint y -> Vint (x + y)
  | _ -> arith_slow ( +. ) va vb

let sub_v va vb =
  match (va, vb) with
  | Vreal x, Vreal y -> Vreal (x -. y)
  | Vint x, Vint y -> Vint (x - y)
  | _ -> arith_slow ( -. ) va vb

let mul_v va vb =
  match (va, vb) with
  | Vreal x, Vreal y -> Vreal (x *. y)
  | Vint x, Vint y -> Vint (x * y)
  | _ -> arith_slow ( *. ) va vb

let div_v va vb =
  match (va, vb) with
  | Vreal x, Vreal y -> Vreal (x /. y)
  | Vint x, Vint y ->
      if y = 0 then err "integer division by zero";
      (* Fortran integer division truncates toward zero *)
      Vint (if (x < 0) <> (y < 0) then -(abs x / abs y) else abs x / abs y)
  | _ -> Vreal (as_float va /. as_float vb)

let pow_v va vb =
  match (va, vb) with
  | Vint x, Vint y when y >= 0 -> Vint (ipow x y)
  | _ -> Vreal (Float.pow (as_float va) (as_float vb))

(* a*b+c contracted to one rounding, the AVX2/FMA mechanism *)
let fused sign_xy vx vy vc =
  match (vx, vy, vc) with
  | Vint a, Vint b, Vint cc -> Vint ((int_of_float sign_xy * a * b) + cc)
  | _ -> Vreal (Float.fma (sign_xy *. as_float vx) (as_float vy) (as_float vc))

let fused_negc vx vy vc =
  match (vx, vy, vc) with
  | Vint a, Vint b, Vint cc -> Vint ((a * b) - cc)
  | _ -> Vreal (Float.fma (as_float vx) (as_float vy) (-.as_float vc))

(* Both operands in order, then [f]. *)
let binary f ca cb env =
  let va = ca env and vb = cb env in
  f va vb

let compare_v op va vb =
  match (va, vb) with
  | Vstr x, Vstr y ->
      let c = compare x y in
      vlog
        (match op with
        | Ast.Eq -> c = 0
        | Ast.Ne -> c <> 0
        | Ast.Lt -> c < 0
        | Ast.Le -> c <= 0
        | Ast.Gt -> c > 0
        | _ -> c >= 0)
  | _ ->
      let x = as_float va and y = as_float vb in
      vlog
        (match op with
        | Ast.Eq -> x = y
        | Ast.Ne -> x <> y
        | Ast.Lt -> x < y
        | Ast.Le -> x <= y
        | Ast.Gt -> x > y
        | _ -> x >= y)

(* The frame as the on_call / on_return hooks see it: every bound slot. *)
let frame_table slot_names frame =
  let tbl = Hashtbl.create 16 in
  Array.iteri (fun k cell -> if cell != vacant then Hashtbl.replace tbl slot_names.(k) cell) frame;
  tbl

(* Run a compiled subprogram on a frame whose formals are bound. *)
let enter m p b frame =
  if m.depth >= max_call_depth then
    err "call depth limit %d exceeded calling %s.%s" max_call_depth p.callable.c_module
      p.callable.c_sub.Ast.s_name;
  let env = { m; globals = m.cells; frame; fma = m.fma_for p.callable.c_module } in
  m.depth <- m.depth + 1;
  match b.run env with
  | () -> m.depth <- m.depth - 1
  | exception e ->
      m.depth <- m.depth - 1;
      raise e

(* An argument binder stores one actual into the callee frame; element and
   section actuals push their copy-out onto the returned list. *)
let bind_all binders env frame =
  let copy_backs = ref [] in
  for i = 0 to Array.length binders - 1 do
    copy_backs := binders.(i) env frame !copy_backs
  done;
  !copy_backs

let body_of p =
  match p.body with
  | Some b -> b
  | None ->
      let b = p.build () in
      Obs.incr "interp.compiled_subprograms";
      p.body <- Some b;
      b

(* --- compilation ------------------------------------------------------------------ *)

(* Compile-time context: the module scope plus the locals bound at the
   point being compiled.  [lazies] are DO variables declared nowhere, bound
   in the frame when their loop first runs. *)
type cctx = {
  scope : scope;
  mname : string;
  sname : string;
  locals : (string, int) Hashtbl.t;
  lazies : (string, int) Hashtbl.t;
  types_open : string list;  (* derived types being expanded, against recursion *)
}

type place = Local of int | Lazy of int | Module of int | Nowhere

let place cc name =
  match Hashtbl.find_opt cc.locals name with
  | Some k -> Local k
  | None -> (
      match Hashtbl.find_opt cc.lazies name with
      | Some k -> Lazy k
      | None -> (
          match Hashtbl.find_opt cc.scope.vars name with Some g -> Module g | None -> Nowhere))

(* A compiled designator, by the kind of location it denotes. *)
type lv =
  | Lv_cell of (env -> value ref)
  | Lv_elem of (env -> arr) * (env -> arr -> int)  (* array, flat index *)
  | Lv_slice of (env -> arr) * (env -> arr -> int array)  (* array, flat indices *)

let cell_code cc name : env -> value ref =
  let mname = cc.mname and sname = cc.sname in
  let unknown () = err "unknown variable %s in %s.%s" name mname sname in
  match place cc name with
  | Local k -> fun env -> Array.unsafe_get env.frame k
  | Module g ->
      fun env ->
        let c = Array.unsafe_get env.globals g in
        if c == vacant then unknown () else c
  | Lazy k ->
      fun env ->
        let c = Array.unsafe_get env.frame k in
        if c == vacant then unknown () else c
  | Nowhere -> fun _ -> unknown ()

let rec compile_expr cc (e : Ast.expr) : env -> value =
  match e with
  | Ast.Enum f ->
      let v = Vreal f in
      fun _ -> v
  | Ast.Eint i ->
      let v = Vint i in
      fun _ -> v
  | Ast.Elogical b ->
      let v = vlog b in
      fun _ -> v
  | Ast.Estring s ->
      let v = Vstr s in
      fun _ -> v
  | Ast.Erange _ -> fun _ -> err "array section used as a value"
  | Ast.Eun (Ast.Neg, a) -> (
      let ca = compile_expr cc a in
      fun env ->
        match ca env with
        | Vreal f -> Vreal (-.f)
        | Vint i -> Vint (-i)
        | v -> Vreal (-.as_float v))
  | Ast.Eun (Ast.Not, a) ->
      let ca = compile_expr cc a in
      fun env -> vlog (not (as_bool (ca env)))
  | Ast.Ebin (op, a, b) -> compile_binop cc op a b
  | Ast.Edesig d -> compile_designator cc d

and compile_binop cc op a b =
  let open Ast in
  match op with
  | Add | Sub -> compile_addsub cc op a b
  | Mul -> binary mul_v (compile_expr cc a) (compile_expr cc b)
  | Div -> binary div_v (compile_expr cc a) (compile_expr cc b)
  | Pow -> binary pow_v (compile_expr cc a) (compile_expr cc b)
  | Eq | Ne | Lt | Le | Gt | Ge -> binary (compare_v op) (compile_expr cc a) (compile_expr cc b)
  | And ->
      let ca = compile_expr cc a and cb = compile_expr cc b in
      fun env -> vlog (as_bool (ca env) && as_bool (cb env))
  | Or ->
      let ca = compile_expr cc a and cb = compile_expr cc b in
      fun env -> vlog (as_bool (ca env) || as_bool (cb env))
  | Concat -> (
      let ca = compile_expr cc a and cb = compile_expr cc b in
      fun env ->
        match (ca env, cb env) with
        | Vstr x, Vstr y -> Vstr (x ^ y)
        | _ -> err "// requires strings")

(* a*b±c compiles its operands once, into a plain and a fused form; the
   running frame's FMA flag picks one. *)
and compile_addsub cc op a b =
  let open Ast in
  let plain_op = match op with Add -> add_v | _ -> sub_v in
  let contractible =
    match (op, a, b) with
    | Add, Ebin (Mul, x, y), c -> Some (x, y, c, true, fused 1.0)
    | Add, c, Ebin (Mul, x, y) -> Some (x, y, c, false, fused 1.0)
    | Sub, Ebin (Mul, x, y), c -> Some (x, y, c, true, fused_negc)
    | Sub, c, Ebin (Mul, x, y) -> Some (x, y, c, false, fused (-1.0))
    | _ -> None
  in
  match contractible with
  | None -> binary plain_op (compile_expr cc a) (compile_expr cc b)
  | Some (x, y, c, product_first, fuse) ->
      let cx = compile_expr cc x and cy = compile_expr cc y and cc_ = compile_expr cc c in
      let product = binary mul_v cx cy in
      let plain = if product_first then binary plain_op product cc_ else binary plain_op cc_ product in
      fun env ->
        if env.fma then
          let vx = cx env and vy = cy env and vc = cc_ env in
          fuse vx vy vc
        else plain env

and compile_designator cc (d : Ast.designator) : env -> value =
  match d with
  | Ast.Dname n -> (
      match place cc n with
      | Local k -> fun env -> !(Array.unsafe_get env.frame k)
      | _ ->
          let cell = cell_code cc n in
          fun env -> !(cell env))
  | Ast.Dindex (Ast.Dname n, args) -> (
      (* array reference or function call — the Fortran ambiguity *)
      match place cc n with
      | Local _ | Module _ -> read_lv (compile_lv cc d)
      | Nowhere -> compile_function_call cc n args
      | Lazy k ->
          let var = read_lv (compile_lv cc d) and call = compile_function_call cc n args in
          fun env -> if Array.unsafe_get env.frame k == vacant then call env else var env)
  | Ast.Dindex _ | Ast.Dmember _ -> read_lv (compile_lv cc d)

and read_lv = function
  | Lv_cell cell -> fun env -> !(cell env)
  | Lv_elem (arr, idx) ->
      fun env ->
        let a = arr env in
        Vreal a.data.(idx env a)
  | Lv_slice (arr, sel) ->
      fun env ->
        let a = arr env in
        section a (sel env a)

(* A designator as an assignable location.  The base is resolved before
   the indices are evaluated. *)
and compile_lv cc (d : Ast.designator) : lv =
  match d with
  | Ast.Dname n -> Lv_cell (cell_code cc n)
  | Ast.Dmember (base, field) ->
      let base_cell = lv_cell cc base "indexing into derived-type arrays is not supported" in
      Lv_cell
        (fun env ->
          match !(base_cell env) with
          | Vderived tbl -> (
              match Hashtbl.find_opt tbl field with
              | Some c -> c
              | None -> err "derived type has no component %s" field)
          | _ -> err "%%%s applied to a non-derived value" field)
  | Ast.Dindex (base, args) ->
      let base_cell = lv_cell cc base "cannot index a section" in
      let base_name = Ast.designator_base base in
      let arr env =
        match !(base_cell env) with Varr a -> a | _ -> err "%s is not an array" base_name
      in
      if List.exists (function Ast.Erange _ -> true | _ -> false) args then
        Lv_slice (arr, compile_section cc args)
      else Lv_elem (arr, compile_index cc args)

(* The cell a base designator denotes; an element or section base is
   resolved (indices evaluated) and then refused with [msg]. *)
and lv_cell cc base msg : env -> value ref =
  match compile_lv cc base with
  | Lv_cell c -> c
  | Lv_elem (arr, idx) ->
      fun env ->
        let a = arr env in
        ignore (idx env a);
        err "%s" msg
  | Lv_slice (arr, sel) ->
      fun env ->
        let a = arr env in
        ignore (sel env a);
        err "%s" msg

and compile_index cc args : env -> arr -> int =
  let out_of_bounds i n d = err "index %d out of bounds 1..%d in dimension %d" i n d in
  let rank_mismatch k nd = err "rank mismatch: %d indices for rank-%d array" k nd in
  match List.map (compile_expr cc) args with
  | [ e0 ] ->
      fun env a ->
        let i0 = as_int (e0 env) in
        let dims = a.dims in
        if Array.length dims <> 1 then rank_mismatch 1 (Array.length dims);
        let n0 = Array.unsafe_get dims 0 in
        if i0 < 1 || i0 > n0 then out_of_bounds i0 n0 1;
        i0 - 1
  | [ e0; e1 ] ->
      fun env a ->
        let i0 = as_int (e0 env) in
        let i1 = as_int (e1 env) in
        let dims = a.dims in
        if Array.length dims <> 2 then rank_mismatch 2 (Array.length dims);
        let n0 = Array.unsafe_get dims 0 and n1 = Array.unsafe_get dims 1 in
        if i0 < 1 || i0 > n0 then out_of_bounds i0 n0 1;
        if i1 < 1 || i1 > n1 then out_of_bounds i1 n1 2;
        i0 - 1 + ((i1 - 1) * n0)
  | es ->
      let es = Array.of_list es in
      fun env a -> flat_index a (Array.map (fun e -> as_int (e env)) es)

(* Index vector holding a section: a full range selects a whole
   dimension; a bounded one is refused when reached, after the indices
   before it are evaluated. *)
and compile_section cc args : env -> arr -> int array =
  let parts =
    Array.of_list
      (List.map
         (function
           | Ast.Erange (None, None) -> fun _ -> `All
           | Ast.Erange _ -> fun _ -> err "bounded array sections are not supported at runtime"
           | e ->
               let ce = compile_expr cc e in
               fun env -> `At (as_int (ce env)))
         args)
  in
  fun env a -> slice_indices a (Array.map (fun p -> p env) parts)

and compile_function_call cc name args : env -> value =
  if is_intrinsic name then compile_intrinsic cc name args
  else
    match Hashtbl.find_opt cc.scope.visible_subs name with
    | Some candidates -> (
        let arity = List.length args in
        match
          List.find_opt
            (fun p ->
              List.length p.callable.c_sub.Ast.s_args = arity
              && p.callable.c_sub.Ast.s_kind = Ast.Function)
            candidates
        with
        | Some p -> compile_call cc p args
        | None -> fun _ -> err "no matching function %s/%d" name arity)
    | None ->
        let mname = cc.mname in
        fun _ -> err "unknown function or array %s in %s" name mname

and compile_intrinsic cc name args : env -> value =
  let cargs = List.map (compile_expr cc) args in
  let one = match cargs with [ a ] -> a | _ -> fun _ -> err "%s expects 1 argument" name in
  let fl f = fun env -> Vreal (f (as_float (one env))) in
  let all env = List.map (fun c -> c env) cargs in
  match name with
  | "abs" -> (
      fun env ->
        match one env with
        | Vreal f -> Vreal (abs_float f)
        | Vint i -> Vint (abs i)
        | v -> Vreal (abs_float (as_float v)))
  | "sqrt" -> fl sqrt
  | "exp" -> fl exp
  | "log" -> fl log
  | "log10" -> fl log10
  | "sin" -> fl sin
  | "cos" -> fl cos
  | "tan" -> fl tan
  | "tanh" -> fl tanh
  | "real" | "dble" -> fl Fun.id
  | "int" -> fun env -> Vint (int_of_float (as_float (one env)))
  | "nint" -> fun env -> Vint (int_of_float (Float.round (as_float (one env))))
  | "floor" -> fun env -> Vint (int_of_float (Float.floor (as_float (one env))))
  | "epsilon" ->
      fun env ->
        ignore (one env);
        Vreal epsilon_float
  | "tiny" ->
      fun env ->
        ignore (one env);
        Vreal 2.2250738585072014e-308
  | "huge" ->
      fun env ->
        ignore (one env);
        Vreal 1.7976931348623157e308
  | "min" | "max" -> (
      let imin = name = "min" in
      let fop = if imin then Float.min else Float.max in
      match cargs with
      | [ ca; cb ] -> (
          fun env ->
            let va = ca env in
            let vb = cb env in
            match (va, vb) with
            | Vreal x, Vreal y -> Vreal (fop x y)
            | Vint x, Vint y -> Vint (if imin = (x <= y) then x else y)
            | _ ->
                let x = as_float va in
                Vreal (fop x (as_float vb)))
      | _ -> (
          fun env ->
            match all env with
            | [] -> err "%s needs arguments" name
            | v0 :: rest as vs ->
                if List.for_all (function Vint _ -> true | _ -> false) vs then
                  let f = if imin then min else max in
                  Vint (List.fold_left (fun acc v -> f acc (as_int v)) (as_int v0) rest)
                else Vreal (List.fold_left (fun acc v -> fop acc (as_float v)) (as_float v0) rest)))
  | "mod" -> (
      match cargs with
      | [ ca; cb ] -> (
          fun env ->
            let va = ca env in
            let vb = cb env in
            match (va, vb) with
            | Vint a, Vint b ->
                if b = 0 then err "mod by zero";
                Vint (a - (b * (a / b)))
            | _ -> Vreal (Float.rem (as_float va) (as_float vb)))
      | _ -> (
      fun env ->
        match all env with
        | [ Vint a; Vint b ] ->
            if b = 0 then err "mod by zero";
            Vint (a - (b * (a / b)))
        | [ a; b ] -> Vreal (Float.rem (as_float a) (as_float b))
        | _ -> err "mod expects 2 arguments"))
  | "sign" -> (
      fun env ->
        match all env with
        | [ a; b ] ->
            let x = as_float a in
            Vreal (if as_float b >= 0.0 then abs_float x else -.abs_float x)
        | _ -> err "sign expects 2 arguments")
  | "sum" -> fun env -> Vreal (Array.fold_left ( +. ) 0.0 (as_arr (one env)).data)
  | "maxval" -> fun env -> Vreal (Array.fold_left Float.max neg_infinity (as_arr (one env)).data)
  | "minval" -> fun env -> Vreal (Array.fold_left Float.min infinity (as_arr (one env)).data)
  | "size" -> fun env -> Vint (Array.length (as_arr (one env)).data)
  | "merge" -> (
      match cargs with
      | [ t; f; mask ] -> fun env -> if as_bool (mask env) then t env else f env
      | _ -> fun _ -> err "merge expects 3 arguments")
  | _ -> fun _ -> err "unimplemented intrinsic %s" name

(* A call of [p]: bind the actuals into a fresh frame, run the callee,
   copy element and section actuals back (last argument first), and
   return the function result ([Vlog false] for subroutines). *)
and compile_call cc p args : env -> value =
  (* callers pick [p] by arity, so formals and actuals pair up *)
  let formals = formal_slots p.callable.c_sub.Ast.s_args in
  let binders = Array.of_list (List.map2 (compile_actual cc) formals args) in
  fun env ->
    let b = body_of p in
    let frame = Array.make b.nslots vacant in
    let copy_backs = bind_all binders env frame in
    enter env.m p b frame;
    List.iter (fun f -> f ()) copy_backs;
    if b.result >= 0 then !(Array.unsafe_get frame b.result) else vfalse

(* Plain-variable actuals alias the caller's cell (Fortran by-reference);
   element/section actuals get copy-in/copy-out temporaries; expression
   actuals — including function references — are passed by value. *)
and compile_actual cc slot (actual : Ast.expr) =
  let by_value () =
    let ce = compile_expr cc actual in
    fun env frame copy_backs ->
      frame.(slot) <- ref (ce env);
      copy_backs
  in
  let by_ref d =
    match compile_lv cc d with
    | Lv_cell cell ->
        fun env frame copy_backs ->
          frame.(slot) <- cell env;
          copy_backs
    | Lv_elem (arr, idx) ->
        fun env frame copy_backs ->
          let a = arr env in
          let i = idx env a in
          let tmp = ref (Vreal a.data.(i)) in
          frame.(slot) <- tmp;
          (fun () -> a.data.(i) <- as_float !tmp) :: copy_backs
    | Lv_slice (arr, sel) ->
        fun env frame copy_backs ->
          let a = arr env in
          let idx = sel env a in
          let tmp = ref (section a idx) in
          frame.(slot) <- tmp;
          (fun () ->
            match !tmp with
            | Varr a' -> Array.iteri (fun k i -> a.data.(i) <- a'.data.(k)) idx
            | v -> Array.iter (fun i -> a.data.(i) <- as_float v) idx)
          :: copy_backs
  in
  match actual with
  | Ast.Edesig d -> (
      match place cc (Ast.designator_base d) with
      | Local _ | Module _ -> by_ref d
      | Nowhere -> by_value ()
      | Lazy k ->
          let r = by_ref d and v = by_value () in
          fun env frame copy_backs ->
            if Array.unsafe_get env.frame k == vacant then v env frame copy_backs
            else r env frame copy_backs)
  | _ -> by_value ()

(* Slot of each formal: the first occurrence of its name, in order. *)
and formal_slots formals =
  let seen = Hashtbl.create 8 in
  List.map
    (fun f ->
      match Hashtbl.find_opt seen f with
      | Some k -> k
      | None ->
          let k = Hashtbl.length seen in
          Hashtbl.replace seen f k;
          k)
    formals

(* --- declarations ------------------------------------------------------------------ *)

(* The initial value of a declaration: its scalar initializer, else the
   type's default (arrays zeroed, derived types instantiated). *)
let rec compile_decl cc (d : Ast.decl) : env -> value =
  match d.Ast.d_init with
  | Some e when d.Ast.d_dims = [] -> compile_expr cc e
  | _ -> compile_default cc d

and compile_default cc (d : Ast.decl) : env -> value =
  match d.Ast.d_dims with
  | [] -> (
      match d.Ast.d_type with
      | Ast.Treal -> fun _ -> Vreal 0.0
      | Ast.Tinteger -> fun _ -> Vint 0
      | Ast.Tlogical -> fun _ -> vfalse
      | Ast.Tcharacter -> fun _ -> Vstr ""
      | Ast.Ttype tname -> (
          match Hashtbl.find_opt cc.scope.visible_types tname with
          | None -> fun _ -> err "unknown derived type %s" tname
          | Some _ when List.mem tname cc.types_open ->
              fun _ -> err "derived type %s contains itself" tname
          | Some td ->
              let inner = { cc with types_open = tname :: cc.types_open } in
              let fields =
                List.map (fun f -> (f.Ast.d_name, compile_default inner f)) td.Ast.t_fields
              in
              fun env ->
                let tbl = Hashtbl.create 8 in
                List.iter (fun (name, mk) -> Hashtbl.replace tbl name (ref (mk env))) fields;
                Vderived tbl))
  | dims ->
      let cdims = List.map (compile_expr cc) dims in
      fun env ->
        let extents = List.map (fun c -> as_int (c env)) cdims in
        Varr { dims = Array.of_list extents; data = Array.make (array_total extents) 0.0 }

(* --- statements -------------------------------------------------------------------------- *)

let compile_store cc line (d : Ast.designator) : env -> value -> unit =
  let mname = cc.mname and sname = cc.sname in
  let var = Ast.designator_base d and canonical = Ast.designator_canonical d in
  let report env f =
    match env.m.hooks.on_assign with
    | Some hook -> hook ~module_:mname ~sub:sname ~line ~var ~canonical f
    | None -> ()
  in
  match compile_lv cc d with
  | Lv_cell cell -> (
      fun env v ->
        let cell = cell env in
        (match (!cell, v) with
        | Vint _, Vreal f -> cell := Vint (int_of_float f)
        | Vreal _, Vint i -> cell := Vreal (float_of_int i)
        | Varr a, (Vreal _ | Vint _) ->
            let x = as_float v in
            Array.fill a.data 0 (Array.length a.data) x
        | Varr a, Varr b ->
            if Array.length a.data <> Array.length b.data then
              err "array assignment length mismatch";
            Array.blit b.data 0 a.data 0 (Array.length a.data)
        | _ -> cell := v);
        match env.m.hooks.on_assign with
        | None -> ()
        | Some _ -> (
            match !cell with
            | Vreal f -> report env f
            | Vint i -> report env (float_of_int i)
            | Varr a -> report env (arr_norm a)
            | _ -> ()))
  | Lv_elem (arr, idx) ->
      fun env v ->
        let a = arr env in
        let i = idx env a in
        let f = as_float v in
        a.data.(i) <- f;
        report env f
  | Lv_slice (arr, sel) ->
      fun env v ->
        let a = arr env in
        let idx = sel env a in
        (match v with
        | Varr b ->
            if Array.length idx <> Array.length b.data then
              err "section assignment length mismatch";
            Array.iteri (fun k i -> a.data.(i) <- b.data.(k)) idx
        | _ ->
            let f = as_float v in
            Array.iter (fun i -> a.data.(i) <- f) idx);
        report env (arr_norm a)

let rec pick_branch env branches els =
  match branches with
  | [] -> els env
  | (cond, body) :: rest -> if as_bool (cond env) then body env else pick_branch env rest els

let select_matches sel v =
  match (sel, v) with
  | Vint a, Vint b -> a = b
  | Vstr a, Vstr b -> a = b
  | a, b -> as_float a = as_float b

let rec pick_case env sel cases default =
  match cases with
  | [] -> default env
  | (values, body) :: rest ->
      if List.exists (fun v -> select_matches sel (v env)) values then body env
      else pick_case env sel rest default

let rec compile_stmt cc (st : Ast.stmt) : env -> unit =
  let mname = cc.mname and sname = cc.sname and line = st.Ast.line in
  match st.Ast.node with
  | Ast.Assign (d, e) ->
      let ce = compile_expr cc e and store = compile_store cc line d in
      fun env ->
        tick env mname sname line;
        store env (ce env)
  | Ast.Call (name, args) ->
      let call = compile_call_stmt cc name args in
      fun env ->
        tick env mname sname line;
        call env
  | Ast.Return ->
      fun env ->
        tick env mname sname line;
        raise Return_exc
  | Ast.Exit_loop ->
      fun env ->
        tick env mname sname line;
        raise Exit_exc
  | Ast.Cycle ->
      fun env ->
        tick env mname sname line;
        raise Cycle_exc
  | Ast.Stop ->
      fun env ->
        tick env mname sname line;
        err "STOP reached in %s.%s" mname sname
  | Ast.Print args ->
      let cargs = List.map (compile_expr cc) args in
      fun env ->
        tick env mname sname line;
        let parts =
          List.map
            (fun c ->
              match c env with
              | Vstr s -> s
              | Vreal f -> Printf.sprintf "%g" f
              | Vint i -> string_of_int i
              | Vlog b -> if b then "T" else "F"
              | Varr _ -> "<array>"
              | Vderived _ -> "<derived>")
            cargs
        in
        Buffer.add_string env.m.print_log (String.concat " " parts);
        Buffer.add_char env.m.print_log '\n'
  | Ast.Unparsed raw ->
      fun env ->
        tick env mname sname line;
        err "executed unparsed statement: %s" raw
  | Ast.If (branches, els) -> (
      let branches = List.map (fun (c, body) -> (compile_expr cc c, compile_body cc body)) branches in
      let els = compile_body cc els in
      match branches with
      | [ (cond, body) ] ->
          fun env ->
            tick env mname sname line;
            if as_bool (cond env) then body env else els env
      | _ ->
          fun env ->
            tick env mname sname line;
            pick_branch env branches els)
  | Ast.Do { var; lo; hi; step; body } ->
      let cell =
        match place cc var with
        | Lazy k ->
            fun env ->
              let c = Array.unsafe_get env.frame k in
              if c != vacant then c
              else
                let c = ref (Vint 0) in
                env.frame.(k) <- c;
                c
        | Local _ | Module _ | Nowhere -> cell_code cc var
      in
      let clo = compile_expr cc lo and chi = compile_expr cc hi in
      let cstep = Option.map (compile_expr cc) step in
      let body = compile_body cc body in
      fun env ->
        tick env mname sname line;
        let cell = cell env in
        let lo = as_int (clo env) and hi = as_int (chi env) in
        let step = match cstep with None -> 1 | Some s -> as_int (s env) in
        if step = 0 then err "do loop with zero step";
        (try
           let i = ref lo in
           while (step > 0 && !i <= hi) || (step < 0 && !i >= hi) do
             cell := Vint !i;
             (try body env with Cycle_exc -> ());
             i := !i + step
           done
         with Exit_exc -> ())
  | Ast.Do_while (cond, body) -> (
      let cond = compile_expr cc cond and body = compile_body cc body in
      fun env ->
        tick env mname sname line;
        try
          while as_bool (cond env) do
            try body env with Cycle_exc -> ()
          done
        with Exit_exc -> ())
  | Ast.Select (selector, cases, default) ->
      let csel = compile_expr cc selector in
      let cases =
        List.map (fun (vs, body) -> (List.map (compile_expr cc) vs, compile_body cc body)) cases
      in
      let default = compile_body cc default in
      fun env ->
        tick env mname sname line;
        pick_case env (csel env) cases default

and compile_body cc body : env -> unit =
  match List.map (compile_stmt cc) body with
  | [] -> fun _ -> ()
  | [ s ] -> s
  | [ s1; s2 ] ->
      fun env ->
        s1 env;
        s2 env
  | stmts ->
      let stmts = Array.of_list stmts in
      fun env ->
        for i = 0 to Array.length stmts - 1 do
          (Array.unsafe_get stmts i) env
        done

and compile_call_stmt cc name args : env -> unit =
  match name with
  | "random_number" -> (
      match args with
      | [ Ast.Edesig d ] -> (
          let draw env = Rca_rng.Prng.float01 env.m.prng in
          match compile_lv cc d with
          | Lv_cell cell -> (
              fun env ->
                let cell = cell env in
                match !cell with
                | Varr a ->
                    for i = 0 to Array.length a.data - 1 do
                      a.data.(i) <- draw env
                    done
                | _ -> cell := Vreal (draw env))
          | Lv_elem (arr, idx) ->
              fun env ->
                let a = arr env in
                let i = idx env a in
                a.data.(i) <- draw env
          | Lv_slice (arr, sel) ->
              fun env ->
                let a = arr env in
                Array.iter (fun i -> a.data.(i) <- draw env) (sel env a))
      | _ -> fun _ -> err "random_number expects one variable argument")
  | "outfld" -> (
      (* history output: the interpreter plays the role of CAM's I/O layer *)
      match args with
      | [ name_e; val_e ] -> (
          let cname = compile_expr cc name_e and cval = compile_expr cc val_e in
          fun env ->
            match (cname env, cval env) with
            | Vstr fld, v ->
                let f = match v with Varr a -> arr_norm a | v -> as_float v in
                Hashtbl.replace env.m.history fld f;
                (match env.m.hooks.on_outfld with Some h -> h fld f | None -> ())
            | _ -> err "outfld expects (string, value)")
      | _ -> fun _ -> err "outfld expects 2 arguments")
  | _ -> (
      let mname = cc.mname in
      match Hashtbl.find_opt cc.scope.visible_subs name with
      | Some candidates -> (
          let arity = List.length args in
          match
            List.find_opt (fun p -> List.length p.callable.c_sub.Ast.s_args = arity) candidates
          with
          | Some p ->
              let call = compile_call cc p args in
              fun env -> ignore (call env)
          | None -> fun _ -> err "no matching subprogram %s/%d" name arity)
      | None -> fun _ -> err "unknown subroutine %s called from %s" name mname)

(* --- subprograms ----------------------------------------------------------------------- *)

let compile_subprogram scope (p : proc) : body =
  let sub = p.callable.c_sub in
  let mname = p.callable.c_module and sname = sub.Ast.s_name in
  let locals = Hashtbl.create 16 and names = ref [] in
  let add name =
    match Hashtbl.find_opt locals name with
    | Some k -> k
    | None ->
        let k = List.length !names in
        Hashtbl.replace locals name k;
        names := name :: !names;
        k
  in
  let formals = Array.of_list (List.map add sub.Ast.s_args) in
  let cc = { scope; mname; sname; locals; lazies = Hashtbl.create 4; types_open = [] } in
  (* each declaration sees the formals and the declarations before it *)
  let decls =
    List.filter_map
      (fun (d : Ast.decl) ->
        if Hashtbl.mem locals d.Ast.d_name then None
        else
          let init = compile_decl cc d in
          Some (add d.Ast.d_name, init))
      sub.Ast.s_decls
    |> Array.of_list
  in
  let result, fresh_result =
    match sub.Ast.s_kind with
    | Ast.Subroutine -> (-1, false)
    | Ast.Function ->
        let name = Ast.function_result_name sub in
        let fresh = not (Hashtbl.mem locals name) in
        (add name, fresh)
  in
  Ast.iter_stmts
    (fun st ->
      match st.Ast.node with
      | Ast.Do { var; _ } when place cc var = Nowhere ->
          let k = List.length !names in
          Hashtbl.replace cc.lazies var k;
          names := var :: !names
      | _ -> ())
    sub.Ast.s_body;
  let stmts = compile_body cc sub.Ast.s_body in
  let slot_names = Array.of_list (List.rev !names) in
  let formal_names = Array.of_list sub.Ast.s_args in
  {
      nslots = Array.length slot_names;
      slot_names;
      formals;
      result;
      run =
        (fun env ->
          let hooks = env.m.hooks in
          (match hooks.on_call with Some hook -> hook mname sname (frame_table slot_names env.frame) | None -> ());
          (* Binding a formal argument delivers a value to it: report it to
             the assignment hook so instrumentation can sample formals the
             same way a source-level sampler would. *)
          (match hooks.on_assign with
          | Some hook ->
              Array.iteri
                (fun i k ->
                  let report f =
                    hook ~module_:mname ~sub:sname ~line:sub.Ast.s_line ~var:formal_names.(i)
                      ~canonical:formal_names.(i) f
                  in
                  match !(env.frame.(k)) with
                  | Vreal f -> report f
                  | Vint i -> report (float_of_int i)
                  | Varr a -> report (arr_norm a)
                  | Vlog _ | Vstr _ | Vderived _ -> ())
                formals
          | None -> ());
          for i = 0 to Array.length decls - 1 do
            let k, init = decls.(i) in
            env.frame.(k) <- ref (init env)
          done;
          if fresh_result then env.frame.(result) <- ref (Vreal 0.0);
          (try stmts env with Return_exc -> ());
          match hooks.on_return with Some hook -> hook mname sname (frame_table slot_names env.frame) | None -> ());
  }

(* --- elaboration ------------------------------------------------------------------------ *)

(* Topological order of modules by use-dependency (Kahn); unresolvable
   cycles keep source order for the remainder. *)
let module_order (prog : Ast.program) =
  let by_name = Hashtbl.create 64 in
  List.iter (fun m -> Hashtbl.replace by_name m.Ast.m_name m) prog;
  let indeg = Hashtbl.create 64 in
  let dependents = Hashtbl.create 64 in
  List.iter
    (fun m ->
      let deps =
        List.filter (fun u -> Hashtbl.mem by_name u.Ast.u_module) m.Ast.m_uses
      in
      Hashtbl.replace indeg m.Ast.m_name (List.length deps);
      List.iter
        (fun u ->
          let cur = Option.value ~default:[] (Hashtbl.find_opt dependents u.Ast.u_module) in
          Hashtbl.replace dependents u.Ast.u_module (m.Ast.m_name :: cur))
        deps)
    prog;
  let q = Queue.create () in
  List.iter
    (fun m ->
      (* every module got an indeg entry in the pass above; a missing
         one would mean [prog] changed under us *)
      match Hashtbl.find_opt indeg m.Ast.m_name with
      | Some 0 -> Queue.add m.Ast.m_name q
      | Some _ -> ()
      | None ->
          invalid_arg
            (Printf.sprintf "module_order: module %S has no in-degree entry" m.Ast.m_name))
    prog;
  let order = ref [] in
  while not (Queue.is_empty q) do
    let name = Queue.pop q in
    order := name :: !order;
    List.iter
      (fun dep ->
        match Hashtbl.find_opt indeg dep with
        | None ->
            invalid_arg
              (Printf.sprintf "module_order: dependent module %S has no in-degree entry" dep)
        | Some n ->
            let d = n - 1 in
            Hashtbl.replace indeg dep d;
            if d = 0 then Queue.add dep q)
      (Option.value ~default:[] (Hashtbl.find_opt dependents name))
  done;
  let ordered = List.rev !order in
  let remaining =
    List.filter (fun m -> not (List.mem m.Ast.m_name ordered)) prog
    |> List.map (fun m -> m.Ast.m_name)
  in
  List.filter_map (Hashtbl.find_opt by_name) (ordered @ remaining)

(* Elaborate a program.  Module variables get cell slots in declaration
   order, and each initializer is compiled against the names visible when
   the tree-walker evaluated it. *)
let compile (prog : Ast.program) : code =
  let modules = Hashtbl.create 64 in
  let n_cells = ref 0 and inits = ref [] in
  let ordered = module_order prog in
  (* the body is compiled in the final scope of its module *)
  let new_proc mu s =
    let callable = { c_module = mu.Ast.m_name; c_sub = s } in
    let rec p =
      {
        callable;
        body = None;
        build =
          (fun () ->
            match Hashtbl.find_opt modules callable.c_module with
            | Some sc -> compile_subprogram sc p
            | None -> invalid_arg (Printf.sprintf "machine: module %S not elaborated" callable.c_module));
      }
    in
    p
  in
  (* pass 1: module shells with own subprograms *)
  List.iter
    (fun (mu : Ast.module_unit) ->
      let sc =
        {
          unit_ = mu;
          vars = Hashtbl.create 16;
          own_vars = Hashtbl.create 16;
          visible_subs = Hashtbl.create 16;
          visible_types = Hashtbl.create 4;
          procs = [];
        }
      in
      List.iter
        (fun (s : Ast.subprogram) ->
          let p = new_proc mu s in
          sc.procs <- sc.procs @ [ (s, p) ];
          let cur = Option.value ~default:[] (Hashtbl.find_opt sc.visible_subs s.Ast.s_name) in
          Hashtbl.replace sc.visible_subs s.Ast.s_name (cur @ [ p ]))
        mu.Ast.m_subprograms;
      List.iter
        (fun (td : Ast.derived_type_def) -> Hashtbl.replace sc.visible_types td.Ast.t_name td)
        mu.Ast.m_types;
      Hashtbl.replace modules mu.Ast.m_name sc)
    ordered;
  (* pass 1 just registered every ordered module; a miss here means the
     name was registered under a different key *)
  let scope_of mu =
    match Hashtbl.find_opt modules mu.Ast.m_name with
    | Some sc -> sc
    | None ->
        invalid_arg (Printf.sprintf "machine: module %S was not elaborated in pass 1" mu.Ast.m_name)
  in
  (* interfaces: generic name -> own procedure candidates *)
  List.iter
    (fun (mu : Ast.module_unit) ->
      let sc = scope_of mu in
      List.iter
        (fun (i : Ast.interface_def) ->
          let cands =
            List.filter_map
              (fun pname ->
                Option.map
                  (fun s ->
                    match List.assq_opt s sc.procs with Some p -> p | None -> new_proc mu s)
                  (Ast.find_subprogram mu pname))
              i.Ast.i_procedures
          in
          if cands <> [] && i.Ast.i_name <> "" then
            Hashtbl.replace sc.visible_subs i.Ast.i_name cands)
        mu.Ast.m_interfaces)
    ordered;
  (* pass 2: imports + module variable elaboration, in dependency order *)
  List.iter
    (fun (mu : Ast.module_unit) ->
      let sc = scope_of mu in
      List.iter
        (fun (u : Ast.use_stmt) ->
          match Hashtbl.find_opt modules u.Ast.u_module with
          | None -> ()  (* unbuilt module: the build filter removed it *)
          | Some src -> (
              let owned cands = List.filter (fun p -> p.callable.c_module = u.Ast.u_module) cands in
              match u.Ast.u_only with
              | Some pairs ->
                  List.iter
                    (fun (local, remote) ->
                      (match Hashtbl.find_opt src.vars remote with
                      | Some g when Hashtbl.mem src.own_vars remote -> Hashtbl.replace sc.vars local g
                      | _ -> ());
                      (match Hashtbl.find_opt src.visible_subs remote with
                      | Some cands ->
                          let owned = owned cands in
                          if owned <> [] then Hashtbl.replace sc.visible_subs local owned
                      | None -> ());
                      match Hashtbl.find_opt src.visible_types remote with
                      | Some td -> Hashtbl.replace sc.visible_types local td
                      | None -> ())
                    pairs
              | None ->
                  (* import every name the source module declares itself *)
                  Hashtbl.iter
                    (fun name () ->
                      match Hashtbl.find_opt src.vars name with
                      | Some g -> Hashtbl.replace sc.vars name g
                      | None -> ())
                    src.own_vars;
                  List.iter
                    (fun (s : Ast.subprogram) ->
                      match Hashtbl.find_opt src.visible_subs s.Ast.s_name with
                      | Some cands ->
                          let owned = owned cands in
                          if owned <> [] then Hashtbl.replace sc.visible_subs s.Ast.s_name owned
                      | None -> ())
                    src.unit_.Ast.m_subprograms;
                  List.iter
                    (fun (i : Ast.interface_def) ->
                      match Hashtbl.find_opt src.visible_subs i.Ast.i_name with
                      | Some cands -> Hashtbl.replace sc.visible_subs i.Ast.i_name cands
                      | None -> ())
                    src.unit_.Ast.m_interfaces;
                  Hashtbl.iter
                    (fun name td -> Hashtbl.replace sc.visible_types name td)
                    src.visible_types))
        mu.Ast.m_uses;
      (* module variables and parameters, in declaration order *)
      let cc =
        {
          scope = sc;
          mname = mu.Ast.m_name;
          sname = "<module>";
          locals = Hashtbl.create 1;
          lazies = Hashtbl.create 1;
          types_open = [];
        }
      in
      List.iter
        (fun (d : Ast.decl) ->
          let init = compile_decl cc d in
          let g = !n_cells in
          incr n_cells;
          inits := (fun env -> env.globals.(g) <- ref (init env)) :: !inits;
          Hashtbl.replace sc.vars d.Ast.d_name g;
          Hashtbl.replace sc.own_vars d.Ast.d_name ())
        mu.Ast.m_decls)
    ordered;
  { modules; n_cells = !n_cells; inits = List.rev !inits }

let create ?(prng = Rca_rng.Kiss.create 1) ?(max_steps = 200_000_000) (prog : Ast.program) : t =
  let code = Obs.span "interp.compile" (fun () -> compile prog) in
  let machine =
    {
      program = prog;
      code;
      cells = Array.make code.n_cells vacant;
      prng;
      fma_for = (fun _ -> false);
      hooks =
        { on_stmt = None; on_assign = None; on_call = None; on_return = None; on_outfld = None };
      history = Hashtbl.create 64;
      print_log = Buffer.create 256;
      steps = 0;
      max_steps;
      depth = 0;
    }
  in
  let env = { m = machine; globals = machine.cells; frame = [||]; fma = false } in
  List.iter (fun init -> init env) code.inits;
  machine

(* --- public entry points ------------------------------------------------------------------ *)

let find_proc machine ~module_ ~sub =
  match Hashtbl.find_opt machine.code.modules module_ with
  | None -> err "unknown module %s" module_
  | Some sc -> (
      match Hashtbl.find_opt sc.visible_subs sub with
      | Some (p :: _) -> p
      | _ -> err "unknown subprogram %s.%s" module_ sub)

let find_callable machine ~module_ ~sub = (find_proc machine ~module_ ~sub).callable

(* Invoke a subroutine with interpreter-level values.  Scalar arguments
   are passed by value; to pass state use module variables. *)
let invoke machine ~module_ ~sub ~args =
  let p = find_proc machine ~module_ ~sub in
  let formals = p.callable.c_sub.Ast.s_args in
  if List.length formals <> List.length args then
    err "%s.%s expects %d arguments" module_ sub (List.length formals);
  let b = body_of p in
  let frame = Array.make b.nslots vacant in
  List.iteri (fun i v -> frame.(b.formals.(i)) <- ref v) args;
  enter machine p b frame;
  if b.result >= 0 then !(frame.(b.result)) else vfalse

let module_cell machine ~module_ ~name =
  match Hashtbl.find_opt machine.code.modules module_ with
  | None -> err "unknown module %s" module_
  | Some sc -> (
      match Hashtbl.find_opt sc.vars name with
      | Some g when machine.cells.(g) != vacant -> machine.cells.(g)
      | _ -> err "unknown variable %s.%s" module_ name)

let get_module_var machine ~module_ ~name = !(module_cell machine ~module_ ~name)
let set_module_var machine ~module_ ~name v = module_cell machine ~module_ ~name := v

let own_module_vars machine ~module_ =
  Option.map
    (fun sc ->
      Hashtbl.fold
        (fun name () acc ->
          match Hashtbl.find_opt sc.vars name with
          | Some g -> (name, machine.cells.(g)) :: acc
          | None -> acc)
        sc.own_vars []
      |> List.sort (fun (a, _) (b, _) -> compare a b))
    (Hashtbl.find_opt machine.code.modules module_)

let history machine = Hashtbl.fold (fun k v acc -> (k, v) :: acc) machine.history []

let history_value machine fld = Hashtbl.find_opt machine.history fld

let printed machine = Buffer.contents machine.print_log

(* Enable FMA everywhere except the modules in [disabled]. *)
let set_fma machine ~enabled ~disabled =
  let dis = Hashtbl.create 16 in
  List.iter (fun m -> Hashtbl.replace dis m ()) disabled;
  machine.fma_for <- (fun m -> enabled && not (Hashtbl.mem dis m))
