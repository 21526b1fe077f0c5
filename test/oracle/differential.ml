(* Differential harness: run one program on the compiled machine
   (lib/interp) and on the reference tree-walker ([Tree_machine]) and
   record what each leaves behind — outcome, history, printed output, step
   count and, optionally, every hook event in order. *)

open Rca_fortran
open Rca_synth

(* The part of a machine's interface the harness drives. *)
module type MACHINE = sig
  exception Runtime_error of string

  type arr = { dims : int array; data : float array }

  type value =
    | Vreal of float
    | Vint of int
    | Vlog of bool
    | Vstr of string
    | Varr of arr
    | Vderived of (string, value ref) Hashtbl.t

  type hooks = {
    mutable on_stmt : (string -> string -> int -> unit) option;
    mutable on_assign :
      (module_:string -> sub:string -> line:int -> var:string -> canonical:string ->
       float -> unit)
      option;
    mutable on_call : (string -> string -> (string, value ref) Hashtbl.t -> unit) option;
    mutable on_return : (string -> string -> (string, value ref) Hashtbl.t -> unit) option;
    mutable on_outfld : (string -> float -> unit) option;
  }

  type t

  val create : ?prng:Rca_rng.Prng.t -> ?max_steps:int -> Ast.program -> t
  val hooks : t -> hooks
  val steps : t -> int
  val invoke : t -> module_:string -> sub:string -> args:value list -> value
  val set_module_var : t -> module_:string -> name:string -> value -> unit
  val set_fma : t -> enabled:bool -> disabled:string list -> unit
  val history : t -> (string * float) list
  val printed : t -> string
end

module Compiled : MACHINE with type t = Rca_interp.Machine.t = struct
  include Rca_interp.Machine

  let hooks m = m.hooks
  let steps m = m.steps
end

module Oracle : MACHINE with type t = Tree_machine.t = struct
  include Tree_machine

  let hooks m = m.hooks
  let steps m = m.steps
end

(* Everything a run leaves behind; floats are compared by their bits. *)
type run = {
  outcome : string;  (* "ok" or the runtime error *)
  history : (string * float) list;  (* sorted by name *)
  printed : string;
  steps : int;
  events : string list;  (* hook events in firing order; [] for model runs *)
}

let bits f = Printf.sprintf "%Lx" (Int64.bits_of_float f)

let same_run a b =
  a.outcome = b.outcome && a.printed = b.printed && a.steps = b.steps && a.events = b.events
  && List.length a.history = List.length b.history
  && List.for_all2
       (fun (ka, va) (kb, vb) -> ka = kb && Int64.bits_of_float va = Int64.bits_of_float vb)
       a.history b.history

(* First field on which two runs differ, for failure messages. *)
let describe_difference a b =
  if a.outcome <> b.outcome then Printf.sprintf "outcome %S vs %S" a.outcome b.outcome
  else if a.steps <> b.steps then Printf.sprintf "steps %d vs %d" a.steps b.steps
  else if a.printed <> b.printed then "printed output"
  else if a.events <> b.events then
    let rec first i = function
      | x :: xs, y :: ys -> if x = y then first (i + 1) (xs, ys) else Printf.sprintf "event %d: %s vs %s" i x y
      | [], y :: _ -> Printf.sprintf "event %d: <none> vs %s" i y
      | x :: _, [] -> Printf.sprintf "event %d: %s vs <none>" i x
      | [], [] -> "events"
    in
    first 0 (a.events, b.events)
  else "history"

module Runner (M : MACHINE) = struct
  let rec show = function
    | M.Vreal f -> "r" ^ bits f
    | M.Vint i -> "i" ^ string_of_int i
    | M.Vlog b -> if b then "T" else "F"
    | M.Vstr s -> Printf.sprintf "%S" s
    | M.Varr a ->
        Printf.sprintf "[%s|%s]"
          (String.concat "," (Array.to_list (Array.map string_of_int a.M.dims)))
          (String.concat "," (Array.to_list (Array.map bits a.M.data)))
    | M.Vderived tbl -> show_table tbl

  and show_table tbl =
    Hashtbl.fold (fun k cell acc -> (k, show !cell) :: acc) tbl []
    |> List.sort compare
    |> List.map (fun (k, v) -> k ^ "=" ^ v)
    |> String.concat ";"
    |> Printf.sprintf "{%s}"

  let record m =
    let log = ref [] in
    let add s = log := s :: !log in
    let h = M.hooks m in
    h.M.on_stmt <- Some (fun md sb line -> add (Printf.sprintf "stmt %s.%s:%d" md sb line));
    h.M.on_assign <-
      Some
        (fun ~module_ ~sub ~line ~var ~canonical f ->
          add (Printf.sprintf "assign %s.%s:%d %s %s %s" module_ sub line var canonical (bits f)));
    h.M.on_call <- Some (fun md sb tbl -> add (Printf.sprintf "call %s.%s %s" md sb (show_table tbl)));
    h.M.on_return <-
      Some (fun md sb tbl -> add (Printf.sprintf "return %s.%s %s" md sb (show_table tbl)));
    h.M.on_outfld <- Some (fun fld f -> add (Printf.sprintf "outfld %s %s" fld (bits f)));
    log

  let finish m outcome log =
    {
      outcome;
      history = List.sort compare (M.history m);
      printed = M.printed m;
      steps = M.steps m;
      events = List.rev !log;
    }

  let outcome_of f =
    match f () with
    | () -> "ok"
    | exception M.Runtime_error msg -> "error: " ^ msg
    | exception Stack_overflow -> "stack overflow"

  (* Call [module_.sub()] on a fresh machine, FMA on or off everywhere,
     recording every hook event; the step budget stops generated programs
     that never terminate. *)
  let run ~fma ~module_ ~sub prog =
    let m = M.create ~prng:(Rca_rng.Kiss.create 7) ~max_steps:20_000 prog in
    M.set_fma m ~enabled:fma ~disabled:[];
    let log = record m in
    let outcome = outcome_of (fun () -> ignore (M.invoke m ~module_ ~sub ~args:[])) in
    finish m outcome log

  (* One synthetic-model run, configured as [Model.machine_of] does. *)
  let run_model program (opts : Model.run_opts) =
    Rca_rng.Prng.reseed opts.Model.prng opts.Model.prng_seed;
    let m = M.create ~prng:opts.Model.prng program in
    (match opts.Model.fma with
    | `Off -> M.set_fma m ~enabled:false ~disabled:[]
    | `On -> M.set_fma m ~enabled:true ~disabled:[]
    | `On_except mods -> M.set_fma m ~enabled:true ~disabled:mods);
    M.set_module_var m ~module_:"state_mod" ~name:"ic_amp" (M.Vreal opts.Model.perturb_amp);
    M.set_module_var m ~module_:"state_mod" ~name:"ic_phase" (M.Vreal opts.Model.perturb_phase);
    let outcome =
      outcome_of (fun () ->
          ignore
            (M.invoke m ~module_:"cam_driver" ~sub:"cam_run" ~args:[ M.Vint opts.Model.nsteps ]))
    in
    finish m outcome (ref [])
end

module Compiled_run = Runner (Compiled)
module Oracle_run = Runner (Oracle)

(* Both interpreters on one generated program; [None] when they agree. *)
let compare_program ~fma ~module_ ~sub prog =
  let a = Compiled_run.run ~fma ~module_ ~sub prog in
  let b = Oracle_run.run ~fma ~module_ ~sub prog in
  if same_run a b then None else Some (describe_difference a b)

(* Both interpreters on one model configuration, each configured as
   [Model.machine_of] configures a machine. *)
let compare_model program (opts : Model.run_opts) =
  let compiled = Compiled_run.run_model program opts in
  let oracle = Oracle_run.run_model program opts in
  (compiled, oracle)
