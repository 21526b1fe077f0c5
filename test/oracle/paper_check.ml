(* Paper-scale differential check of the compiled interpreter.

   For each of the seven paper experiments (WSUBBUG, RAND-MT, GOFFGRATCH,
   AVX2, AVX2-FULL, RANDOMBUG, DYN3BUG) run the experimental configuration
   — injected source, experiment run options — on the compiled machine and
   on the reference tree-walker, and the control configuration (clean
   source, default options) they all share once; compare outcome, step
   count, printed output and every history value bit for bit.  Two
   ensemble members per configuration.  Exits 1 on any difference.

     dune exec test/oracle/paper_check.exe *)

open Rca_synth
open Rca_experiments
module D = Rca_oracle.Differential

let build sources = Model.build_filter (Model.parse_program ~strict:false sources) ~driver:"cam_driver"

let () =
  let config = Config.paper in
  let clean_sources = Model.generate config in
  let clean = build clean_sources in
  let failures = ref 0 in
  let check label program opts =
    let t0 = Unix.gettimeofday () in
    let compiled, oracle = D.compare_model program opts in
    let ok = D.same_run compiled oracle in
    if not ok then incr failures;
    Printf.printf "%-28s %-4s steps %d  outputs %d  (%s)  %.1f s\n%!" label
      (if ok then "ok" else "DIFF") compiled.D.steps (List.length compiled.D.history)
      (if ok then compiled.D.outcome else D.describe_difference compiled oracle)
      (Unix.gettimeofday () -. t0)
  in
  List.iter
    (fun member -> check (Printf.sprintf "control member %d" member) clean (Model.default_opts ~member config))
    [ 0; 1 ];
  List.iter
    (fun (spec : Harness.spec) ->
      let program = build (spec.Harness.inject clean_sources) in
      List.iter
        (fun member ->
          check
            (Printf.sprintf "%s member %d" spec.Harness.name member)
            program
            (spec.Harness.opts (Model.default_opts ~member config)))
        [ 1000; 1001 ])
    [
      Experiments.wsubbug;
      Experiments.rand_mt;
      Experiments.goffgratch;
      Experiments.avx2;
      Experiments.avx2_full;
      Experiments.randombug;
      Experiments.dyn3bug;
    ];
  if !failures > 0 then begin
    Printf.printf "%d configuration(s) differ from the reference interpreter\n" !failures;
    exit 1
  end
  else print_endline "compiled interpreter matches the reference interpreter at paper scale"
