(* Paper-scale checks, too slow for dune runtest.

   Interpreter.  For each of the seven paper experiments (WSUBBUG,
   RAND-MT, GOFFGRATCH, AVX2, AVX2-FULL, RANDOMBUG, DYN3BUG) run the
   experimental configuration — injected source, experiment run options —
   on the compiled machine and on the reference tree-walker, and the
   control configuration (clean source, default options) they all share
   once; compare outcome, step count, printed output and every history
   value bit for bit.  Two ensemble members per configuration.

   Detectors.  The two community detectors (exact Girvan–Newman and
   modularity-greedy) must locate the same GOFFGRATCH bugs end to end at
   small and at paper scale, and the greedy partition of the paper-scale
   Fig 10/11 slice must keep a modularity of at least 0.30.

   Front end.  The paper-scale metagraph of the clean, coverage-filtered
   model and its [rca_main lint --scale paper --strict-types] report
   (oracle summary included) must match their pinned md5 digests: name
   resolution may be restructured, but no node, edge, symbol or finding
   may move.

   Exits 1 on any failed check.

     dune exec test/oracle/paper_check.exe *)

open Rca_synth
open Rca_experiments
module D = Rca_oracle.Differential
module G = Rca_graph

let build sources = Model.build_filter (Model.parse_program ~strict:false sources) ~driver:"cam_driver"

let failures = ref 0

let report label ok detail =
  if not ok then incr failures;
  Printf.printf "%-28s %-4s %s\n%!" label (if ok then "ok" else "FAIL") detail

let check_interpreter () =
  let config = Config.paper in
  let clean_sources = Model.generate config in
  let clean = build clean_sources in
  let check label program opts =
    let t0 = Unix.gettimeofday () in
    let compiled, oracle = D.compare_model program opts in
    let ok = D.same_run compiled oracle in
    report label ok
      (Printf.sprintf "steps %d  outputs %d  (%s)  %.1f s" compiled.D.steps
         (List.length compiled.D.history)
         (if ok then compiled.D.outcome else D.describe_difference compiled oracle)
         (Unix.gettimeofday () -. t0))
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
    ]

let check_detectors () =
  let spec = Experiments.goffgratch in
  List.iter
    (fun (label, config) ->
      let fixture = Fixture.make ~inject:spec.Harness.inject config in
      let mg = fixture.Fixture.mg in
      let bug_nodes = Fixture.bug_nodes fixture ~canonicals:spec.Harness.bug_canonicals in
      let detect = Rca_core.Detector.reachability mg ~bug_nodes in
      let located =
        List.map
          (fun partitioner ->
            let pl =
              Rca_core.Pipeline.run ~keep_module:Outputs.is_cam_module ~min_cluster:4
                ~gn_approx:128 ~stop_size:30 ~partitioner mg
                ~outputs:[ "cloud"; "cldtot"; "aqsnow"; "freqs"; "ccn3" ]
                ~detect
            in
            (Rca_core.Refine.partitioner_string partitioner,
             Rca_core.Pipeline.located_bugs mg pl ~bug_nodes))
          Rca_core.Refine.partitioners
      in
      report
        (Printf.sprintf "located_bugs, %s scale" label)
        (List.for_all (fun (_, l) -> l = snd (List.hd located)) located)
        (String.concat ", "
           (List.map
              (fun (name, l) ->
                Printf.sprintf "%s %d/%d" name (List.length l) (List.length bug_nodes))
              located)))
    [ ("small", Config.small); ("paper", Config.paper) ];
  let floor = 0.30 in
  let g = (Rca_core.Slice.subgraph (Figures.goffgratch_slice Config.paper)).G.Digraph.graph in
  let q = (G.Quality.of_partition g (G.Community.modularity_greedy g)).G.Quality.q_modularity in
  report "greedy modularity, paper" (q >= floor)
    (Printf.sprintf "Q %.4f (floor %.2f) on the %d-node slice" q floor (G.Digraph.n g))

let check_front_end () =
  let fixture = Fixture.make Config.paper in
  let mg = fixture.Fixture.mg in
  let digest = Rca_oracle.Front_digest.metagraph mg in
  let pinned = "49260969057c78c5fc179e1bc8efb9e1" in
  report "metagraph digest, paper" (digest = pinned)
    (Printf.sprintf "%s (%d nodes, %d edges)" digest (G.Digraph.n mg.Rca_metagraph.Metagraph.graph)
       (G.Digraph.m mg.Rca_metagraph.Metagraph.graph));
  let module A = Rca_analysis.Analysis in
  let an = A.analyze ~strict_types:true fixture.Fixture.covered_program in
  let oracle = A.check_oracle an mg in
  let digest = Rca_oracle.Front_digest.string (A.report_json ~oracle an) in
  let pinned = "cdd88f8e88a901db25f076c715aeb161" in
  report "strict lint report, paper" (digest = pinned)
    (Printf.sprintf "%s (%d diagnostics, %d symbols)" digest (List.length an.A.diags)
       (Rca_analysis.Resolve.n_symbols an.A.resolution))

let () =
  check_interpreter ();
  check_detectors ();
  check_front_end ();
  if !failures > 0 then begin
    Printf.printf "%d paper-scale check(s) failed\n" !failures;
    exit 1
  end
  else print_endline "all paper-scale checks passed"
