(* Differential tests: the compiled interpreter in lib/interp against the
   reference tree-walker kept in test/oracle.  Generated programs must
   leave identical history, printed output, step counts and hook event
   streams; every tiny-campaign fault's control and experimental runs must
   agree bit for bit.  Also: a machine compiles each called body once and
   leaves nothing behind, and tracing never changes a result. *)

open Rca_fortran
open Rca_synth
module Machine = Rca_interp.Machine
module D = Rca_oracle.Differential
module Obs = Rca_obs.Obs

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let parse src = Parser.parse_file ~strict:true ~file:"gen.F90" src

(* --- generated programs ------------------------------------------------------ *)

(* Module variables of the generated programs: [ga(4)], [gb(4, 3)], the
   derived [gp] (scalar [x], array [v(4)]), reals [gs] and [acc], integers
   [gi] and [cnt].  [go] adds locals [i j k t u]; [lz] is a DO variable
   declared nowhere. *)
let n = 4

let gen_program =
  let open QCheck2.Gen in
  let lit_real = map (fun k -> Printf.sprintf "%d.%02d_r8" (k / 100) (k mod 100)) (int_range 0 999) in
  let lit_int = map string_of_int (int_range 0 9) in
  (* an index in 1..n: a literal, an enclosing loop variable, or folded *)
  let rec index loops d =
    frequency
      ([ (3, map string_of_int (int_range 1 n)) ]
      @ (if loops = [] then [] else [ (3, oneofl loops) ])
      @ if d = 0 then [] else [ (1, map (Printf.sprintf "mod(abs(%s), 4) + 1") (iexpr loops (d - 1))) ])
  and iexpr loops d =
    let atom = oneof [ lit_int; oneofl ([ "i"; "j"; "k"; "gi"; "cnt" ] @ loops) ] in
    if d = 0 then atom
    else
      let sub = iexpr loops (d - 1) in
      frequency
        [
          (3, atom);
          (2, map3 (fun a op b -> Printf.sprintf "(%s %s %s)" a op b) sub (oneofl [ "+"; "-"; "*" ]) sub);
          (1, map2 (Printf.sprintf "(%s / %s)") sub (map string_of_int (int_range 1 5)));
          (1, map2 (Printf.sprintf "mod(%s, %s)") sub (map string_of_int (int_range 1 7)));
          (1, map2 (Printf.sprintf "(%s ** %d)") sub (int_range 0 3));
          (1, map (Printf.sprintf "ifun(%s)") sub);
          (1, map (Printf.sprintf "int(%s)") (rexpr loops (d - 1)));
          (1, map (Printf.sprintf "nint(%s)") (rexpr loops (d - 1)));
          (1, map2 (Printf.sprintf "max(%s, %s)") sub sub);
        ]
  and rexpr loops d =
    let atom =
      frequency
        [
          (3, lit_real);
          (1, lit_int);
          (3, oneofl [ "t"; "u"; "acc"; "gs"; "gp%x" ]);
          (2, map (Printf.sprintf "ga(%s)") (index loops 0));
          (1, map2 (Printf.sprintf "gb(%s, %s)") (index loops 0) (map string_of_int (int_range 1 3)));
          (1, map (Printf.sprintf "gp%%v(%s)") (index loops 0));
        ]
    in
    if d = 0 then atom
    else
      let sub = rexpr loops (d - 1) in
      frequency
        [
          (3, atom);
          (4, map3 (fun a op b -> Printf.sprintf "(%s %s %s)" a op b) sub (oneofl [ "+"; "-"; "*" ]) sub);
          (* a*b+c shapes the FMA switch contracts *)
          (2, map3 (Printf.sprintf "%s * %s + %s") sub sub sub);
          (2, map3 (Printf.sprintf "%s - %s * %s") sub sub sub);
          (1, map2 (Printf.sprintf "(%s / %s)") sub sub);
          (1, map (Printf.sprintf "(%s ** 2)") sub);
          (1, map (Printf.sprintf "real(%s)") (iexpr loops (d - 1)));
          (1, map2 (Printf.sprintf "f1(%s, %s)") sub sub);
          (1, map (Printf.sprintf "gen(%s)") sub);
          (1, map2 (Printf.sprintf "gen(%s, %s)") sub (iexpr loops (d - 1)));
          (1, map (Printf.sprintf "twice(%s)") sub);
          (1, map (Printf.sprintf "sqrt(abs(%s))") sub);
          (1, map2 (Printf.sprintf "max(%s, %s)") sub sub);
          (1, map2 (Printf.sprintf "min(%s, %s)") sub sub);
          (1, map2 (Printf.sprintf "sign(%s, %s)") sub sub);
          (1, map (Printf.sprintf "tanh(%s)") sub);
          (1, map3 (Printf.sprintf "merge(%s, %s, %s)") sub sub (cmp loops (d - 1)));
          (1, oneofl [ "sum(ga)"; "maxval(gp%v)"; "minval(ga)"; "real(size(gb))" ]);
        ]
  and cmp loops d =
    oneof
      [
        map3 (Printf.sprintf "%s %s %s") (rexpr loops d) (oneofl [ "<"; ">="; "=="; "/=" ]) (rexpr loops d);
        map3 (Printf.sprintf "%s %s %s") (iexpr loops d) (oneofl [ "=="; "<="; ">" ]) (iexpr loops d);
      ]
  and cond loops d =
    let cmp = cmp loops 1 in
    if d = 0 then cmp
    else
      oneof
        [
          cmp;
          map2 (Printf.sprintf "(%s .and. %s)") cmp cmp;
          map2 (Printf.sprintf "(%s .or. %s)") cmp cmp;
          map (Printf.sprintf ".not. (%s)") cmp;
        ]
  in
  let rec stmts loops d = list_size (int_range 1 (if d = 0 then 3 else 5)) (stmt loops d)
  and block loops d = map (String.concat "\n") (stmts loops d)
  and stmt loops d =
    let e = rexpr loops 2 and ie = iexpr loops 2 and idx = index loops 1 in
    let simple =
      [
        (4, map (Printf.sprintf "t = %s") e);
        (2, map (Printf.sprintf "u = %s") ie);
        (2, map (Printf.sprintf "k = %s") e);
        (1, map (Printf.sprintf "cnt = %s") ie);
        (3, map2 (Printf.sprintf "ga(%s) = %s") idx e);
        (2, map3 (Printf.sprintf "gb(%s, %s) = %s") idx (map string_of_int (int_range 1 3)) e);
        (2, map2 (Printf.sprintf "gp%%v(%s) = %s") idx e);
        (1, map (Printf.sprintf "gp%%x = %s") e);
        (1, map (Printf.sprintf "ga = %s") e);
        (1, map2 (Printf.sprintf "gb(%s, :) = %s") idx e);
        (1, return "ga = gp%v");
        (1, map (Printf.sprintf "acc = acc + %s") e);
        (2, map (Printf.sprintf "call bump(t, %s)") e);
        (2, map2 (Printf.sprintf "call bump(ga(%s), %s)") idx e);
        (* two copy-outs into one element: the first argument's must win *)
        (1, map (fun i -> Printf.sprintf "call bump(ga(%s), ga(%s))" i i) idx);
        (1, map2 (Printf.sprintf "call bump(gp%%v(%s), %s)") idx e);
        (1, map (Printf.sprintf "call bump(gp%%x, %s)") e);
        (1, map (Printf.sprintf "call scale(ga, %s)") e);
        (1, map (Printf.sprintf "call scale(gb(:, 2), %s)") e);
        (1, map (Printf.sprintf "call scale(gp%%v, %s)") e);
        (1, oneofl [ "call random_number(t)"; "call random_number(ga)"; "call random_number(gb(2, :))" ]);
        (1, map (Printf.sprintf "call random_number(ga(%s))") idx);
        (2, map2 (Printf.sprintf "call outfld('%s', %s)") (oneofl [ "fa"; "fb"; "fc" ]) e);
        (1, return "call outfld('farr', gb)");
        (1, map2 (Printf.sprintf "print *, 'p', %s, %s") e ie);
        (1, return "t = t + lz");
      ]
    in
    let nested =
      if d = 0 then []
      else
        [
          ( 2,
            map3
              (fun c a b -> Printf.sprintf "if (%s) then\n%s\nelse\n%s\nend if" c a b)
              (cond loops 1) (block loops (d - 1)) (block loops (d - 1)) );
          ( 1,
            map3
              (fun c a b -> Printf.sprintf "if (%s) then\n%s\nelse if (%s) then\nt = t + 1.0_r8\nelse\n%s\nend if" c a c b)
              (cond loops 1) (block loops (d - 1)) (block loops (d - 1)) );
          ( 3,
            oneofl [ "i"; "j"; "lz" ] >>= fun v ->
            let inner = v :: loops in
            map3
              (fun body c1 c2 ->
                Printf.sprintf "do %s = 1, %d\n%s\nif (%s) cycle\nacc = acc + 1.0_r8\nif (%s) exit\nend do" v n body c1
                  c2)
              (block inner (d - 1)) (cond inner 0) (cond inner 0) );
          ( 1,
            map2 (fun hi body -> Printf.sprintf "do k = %d, 1, -2\n%s\nend do" hi body)
              (int_range 1 6) (block loops (d - 1)) );
          ( 1,
            map (fun body -> Printf.sprintf "cnt = 0\ndo while (cnt < 3)\ncnt = cnt + 1\n%s\nend do" body)
              (block loops (d - 1)) );
          ( 1,
            map3
              (fun sel a b -> Printf.sprintf "select case (%s)\ncase (1)\n%s\ncase (2, 3)\n%s\ncase default\nu = u + 1.0_r8\nend select" sel a b)
              (iexpr loops 1) (block loops (d - 1)) (block loops (d - 1)) );
        ]
    in
    frequency (simple @ nested)
  in
  map3
    (fun body fbody sbody ->
      Printf.sprintf
        {|module gdata
  integer, parameter :: n = %d
  real(r8) :: ga(n), gb(n, 3)
  real(r8) :: gs = 1.5_r8
  integer :: gi = 2
  type pt
    real(r8) :: x
    real(r8) :: v(n)
  end type pt
  type(pt) :: gp
end module gdata

module gfun
  use gdata
  interface gen
    module procedure gen1, gen2
  end interface
contains
  function f1(a, b) result(r)
    real(r8), intent(in) :: a, b
    real(r8) :: r
    r = %s
  end function f1
  function gen1(a) result(r)
    real(r8), intent(in) :: a
    real(r8) :: r
    r = a * 0.5_r8 + gs
  end function gen1
  function gen2(a, b) result(r)
    real(r8), intent(in) :: a
    integer, intent(in) :: b
    real(r8) :: r
    r = a * b - gs
  end function gen2
  function twice(a)
    real(r8), intent(in) :: a
    twice = a * 2.0_r8
  end function twice
  function ifun(q) result(m)
    integer, intent(in) :: q
    integer :: m
    m = mod(q * 3 + gi, 7)
  end function ifun
  subroutine bump(x, y)
    real(r8), intent(inout) :: x
    real(r8), intent(in) :: y
    %s
    gs = gs + 0.25_r8
  end subroutine bump
  subroutine scale(v, c)
    real(r8), intent(inout) :: v(n)
    real(r8), intent(in) :: c
    integer :: q
    do q = 1, size(v)
      v(q) = v(q) * c - 1.0_r8
    end do
  end subroutine scale
end module gfun

module gmain
  use gdata
  use gfun, only: f1, gen, twice, ifun, bump, scale
  real(r8) :: acc
  integer :: cnt
contains
  subroutine go()
    integer :: i, j, k
    real(r8) :: t, u
    t = 0.5_r8
    u = 1.0_r8
    k = 2
%s
    call outfld('acc', acc)
    call outfld('t', t)
  end subroutine go
end module gmain
|}
        n fbody sbody body)
    (block [] 2)
    (map (fun e -> e) (oneofl [ "a * b + gs"; "a - b * 0.5_r8"; "(a + b) * gs"; "max(a, b) * gi" ]))
    (oneofl [ "x = x * y + 0.5_r8"; "x = y - x * 0.25_r8"; "x = x + y" ])

let prop_compiled_matches_oracle =
  QCheck2.Test.make ~name:"compiled interpreter matches the tree-walker on generated programs" ~count:300
    ~print:Fun.id gen_program (fun src ->
      let prog = parse src in
      List.for_all
        (fun fma ->
          match D.compare_program ~fma ~module_:"gmain" ~sub:"go" prog with
          | None -> true
          | Some diff -> QCheck2.Test.fail_reportf "fma=%b: %s" fma diff)
        [ false; true ])

(* --- campaign faults ------------------------------------------------------------ *)

let tiny = Config.tiny

let campaign_faults_bitwise () =
  let corpus = Rca_faults.Corpus.generate (Rca_faults.Corpus.default_params tiny) in
  let clean = corpus.Rca_faults.Corpus.fixture in
  let compare label program opts =
    let compiled, oracle = D.compare_model program opts in
    if not (D.same_run compiled oracle) then
      Alcotest.failf "%s: %s" label (D.describe_difference compiled oracle)
  in
  compare "control" clean.Rca_experiments.Fixture.clean_program (Model.default_opts ~member:0 tiny);
  List.iter
    (fun (f : Rca_faults.Fault.t) ->
      let program =
        if Rca_faults.Fault.is_source_fault f then
          Model.build_filter
            (Model.parse_program ~strict:false (f.Rca_faults.Fault.inject clean.Rca_experiments.Fixture.clean_sources))
            ~driver:"cam_driver"
        else clean.Rca_experiments.Fixture.exp_program
      in
      compare f.Rca_faults.Fault.id program (f.Rca_faults.Fault.opts (Model.default_opts ~member:1000 tiny)))
    corpus.Rca_faults.Corpus.faults;
  check_bool "corpus has faults" true (List.length corpus.Rca_faults.Corpus.faults > 20)

(* --- compilation ------------------------------------------------------------------- *)

let small_src =
  "module w\n real(r8) :: x\ncontains\n subroutine go()\n x = x + 1.0_r8\n end subroutine go\n function f(a) result(r)\n real(r8), intent(in) :: a\n real(r8) :: r\n r = a\n end function f\nend module w"

let compiled_per_machine_on_first_call () =
  Obs.reset ();
  Obs.enable ();
  let prog = parse small_src in
  let m = Machine.create prog in
  for _ = 1 to 3 do
    ignore (Machine.invoke m ~module_:"w" ~sub:"go" ~args:[])
  done;
  let spans = Obs.span_count "interp.compile" and subs = Obs.counter_value "interp.compiled_subprograms" in
  ignore (Machine.create prog);
  let spans' = Obs.span_count "interp.compile" in
  Obs.disable ();
  Obs.reset ();
  check_int "one elaboration per machine" 1 spans;
  (* [go] ran three times and was compiled once; [f] never ran *)
  check_int "only the called subprogram, once" 1 subs;
  check_int "a second machine elaborates again" 2 spans';
  check_bool "results kept" true (Machine.get_module_var m ~module_:"w" ~name:"x" = Machine.Vreal 3.0)

let program_is_released () =
  let released = ref false in
  let run () =
    let prog = parse small_src in
    Gc.finalise_last (fun () -> released := true) prog;
    ignore (Machine.invoke (Machine.create prog) ~module_:"w" ~sub:"go" ~args:[])
  in
  run ();
  Gc.full_major ();
  Gc.full_major ();
  check_bool "program and its compiled code collected" true !released

(* --- tracing never steers ----------------------------------------------------------- *)

(* Each side parses its own program, so each compiles it too. *)
let obs_does_not_change_outputs () =
  let run () =
    let prog =
      Model.build_filter (Model.parse_program ~strict:false (Model.generate tiny)) ~driver:"cam_driver"
    in
    Model.output_vector (Model.run_machine prog (Model.default_opts ~member:3 tiny))
  in
  Obs.disable ();
  let untraced = run () in
  Obs.reset ();
  Obs.enable ();
  let traced = run () in
  Obs.disable ();
  Obs.reset ();
  check_bool "output vectors bitwise equal" true
    (Array.for_all2 (fun a b -> Int64.bits_of_float a = Int64.bits_of_float b) untraced traced)

let () =
  Alcotest.run "rca_oracle"
    [
      ("differential", [ QCheck_alcotest.to_alcotest prop_compiled_matches_oracle ]);
      ("campaign", [ Alcotest.test_case "tiny faults bitwise" `Quick campaign_faults_bitwise ]);
      ( "compile",
        [
          Alcotest.test_case "per machine, bodies on first call" `Quick compiled_per_machine_on_first_call;
          Alcotest.test_case "released with the program" `Quick program_is_released;
        ] );
      ("obs", [ Alcotest.test_case "outputs unchanged by tracing" `Quick obs_does_not_change_outputs ]);
    ]
