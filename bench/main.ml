(* Benchmark & reproduction harness.

     dune exec bench/main.exe            -- everything (tables, figures,
                                            experiments, microbenchmarks)
     dune exec bench/main.exe -- <target>

   Targets: wsubbug randmt goffgratch avx2 avx2full randombug dyn3bug
            table1 table2 fig4 fig10 fig11 ablation micro micro-par gn
            pipeline refine scaling lint serve campaign

   Flags: --json PATH     write the `gn`/`pipeline`/`refine`/`scaling`
                          target's telemetry as JSON
          --domains N     pool size for the parallel `gn` runs (default 4)
          --detector NAME community detector for the `pipeline`/`refine`/
                          `campaign` targets (gn|greedy; parsed by the
                          same helper as rca_main's --detector)
          --trace PATH    record the run under lib/obs and write a Chrome
                          trace-event JSON (`gn`, `pipeline` and `refine`
                          targets)

   Each experiment target regenerates the corresponding paper artifact at
   the "paper" model scale and prints the same rows/series the paper
   reports: slice sizes, community structure, sampled central nodes,
   detection outcomes, failure-rate tables and degree distributions.  The
   `micro` target runs Bechamel timings of the pipeline stages; `gn`
   benchmarks exact Girvan–Newman (reference vs component-incremental
   CSR engine, sequential and pooled) on a clustered fixture; `pipeline`
   runs the end-to-end slice-and-refine fixture twice — uninstrumented,
   then under lib/obs tracing — checks the results are identical, and
   writes the per-stage telemetry (BENCH_pipeline.json). *)

open Rca_experiments
module MG = Rca_metagraph.Metagraph
module G = Rca_graph

let config = Rca_synth.Config.paper

let params =
  lazy { (Harness.default_params config) with Harness.ensemble_members = 20 }

let time label f =
  let t0 = Unix.gettimeofday () in
  let r = f () in
  Printf.printf "[%s finished in %.1fs]\n\n%!" label (Unix.gettimeofday () -. t0);
  r

let hr () = print_endline (String.make 78 '-')

(* --- experiments (figures 5-8, 12-15 as textual series) ------------------------ *)

let run_experiment spec =
  hr ();
  ignore
    (time spec.Harness.name (fun () ->
         let r = Harness.run spec (Lazy.force params) in
         Format.printf "%a@." Harness.pp r;
         if spec.Harness.name = "AVX2" then
           Format.printf "%a@." Avx2_kernel.pp (Avx2_kernel.analyze r);
         r))

(* --- Table 1 --------------------------------------------------------------------- *)

let run_table1 () =
  hr ();
  ignore
    (time "Table 1" (fun () ->
         let r = Table1.run (Table1.default_params config) in
         Format.printf "%a@." Table1.pp r;
         Format.printf "central modules: %s@."
           (String.concat ", " (List.filteri (fun i _ -> i < 12) r.Table1.central_modules));
         r))

(* --- Table 2 --------------------------------------------------------------------- *)

let run_table2 () =
  hr ();
  ignore
    (time "Table 2" (fun () ->
         let fixture = Fixture.make config in
         Printf.printf "Table 2: output variables and internal counterparts\n";
         Printf.printf "%-12s %-14s %-16s %s\n" "output" "internal" "module" "recovered from outfld";
         List.iter
           (fun e ->
             let recovered = MG.io_internal_names fixture.Fixture.mg e.Rca_synth.Outputs.output in
             Printf.printf "%-12s %-14s %-16s %s\n" e.Rca_synth.Outputs.output
               e.Rca_synth.Outputs.internal e.Rca_synth.Outputs.module_
               (String.concat "," recovered))
           Rca_synth.Outputs.catalogue;
         fixture))

(* --- Figures ---------------------------------------------------------------------- *)

let goffgratch_slice fixture =
  let detect = Rca_core.Detector.never in
  let pipeline =
    Rca_core.Pipeline.run ~keep_module:Rca_synth.Outputs.is_cam_module ~min_cluster:4
      ~max_iterations:0 fixture.Fixture.mg
      ~outputs:[ "cloud"; "cldtot"; "aqsnow"; "freqs"; "ccn3" ]
      ~detect
  in
  pipeline.Rca_core.Pipeline.slice

let run_fig4 () =
  hr ();
  ignore
    (time "Fig 4/9" (fun () ->
         let fixture = Fixture.make config in
         Format.printf "%a@." Figures.pp_degree_figure (Figures.fig4 fixture.Fixture.mg);
         fixture))

let run_fig10 () =
  hr ();
  ignore
    (time "Fig 10" (fun () ->
         let fixture = Fixture.make ~inject:Experiments.goffgratch.Harness.inject config in
         let slice = goffgratch_slice fixture in
         Format.printf "%a@." Figures.pp_degree_figure (Figures.fig10 slice);
         slice))

let run_fig11 () =
  hr ();
  ignore
    (time "Fig 11" (fun () ->
         let fixture = Fixture.make ~inject:Experiments.goffgratch.Harness.inject config in
         let slice = goffgratch_slice fixture in
         Format.printf "%a@." Figures.pp_centrality_figure (Figures.fig11 slice);
         slice))

(* --- Ablation ---------------------------------------------------------------------- *)

let run_ablation () =
  hr ();
  ignore
    (time "Ablation" (fun () ->
         let rows = Ablation.run Rca_synth.Config.small in
         Format.printf "%a@." Ablation.pp rows;
         rows))

(* --- Bechamel microbenchmarks ------------------------------------------------------- *)

let microbenchmarks () =
  hr ();
  print_endline "Bechamel microbenchmarks of the pipeline stages (small scale)";
  let open Bechamel in
  let small = Rca_synth.Config.small in
  let srcs = Rca_synth.Model.generate small in
  let program =
    Rca_synth.Model.build_filter
      (Rca_synth.Model.parse_program ~strict:false srcs)
      ~driver:"cam_driver"
  in
  let mg = MG.build program in
  let slice = Rca_core.Slice.of_internals mg [ "qsout2"; "cld"; "flwds" ] in
  let sub = Rca_core.Slice.subgraph slice in
  let opts = Rca_synth.Model.default_opts small in
  let tests =
    [
      Test.make ~name:"parse-model-sources" (Staged.stage (fun () ->
          ignore (Rca_synth.Model.parse_program ~strict:false srcs)));
      Test.make ~name:"metagraph-build" (Staged.stage (fun () -> ignore (MG.build program)));
      Test.make ~name:"model-run-9-steps" (Staged.stage (fun () ->
          ignore (Rca_synth.Model.run program opts)));
      Test.make ~name:"backward-slice" (Staged.stage (fun () ->
          ignore (Rca_core.Slice.of_internals mg [ "qsout2"; "cld"; "flwds" ])));
      Test.make ~name:"girvan-newman-step" (Staged.stage (fun () ->
          ignore (G.Community.girvan_newman_step ~approx:64 sub.G.Digraph.graph)));
      Test.make ~name:"eigenvector-in-centrality" (Staged.stage (fun () ->
          ignore (G.Centrality.eigenvector ~direction:G.Centrality.In sub.G.Digraph.graph)));
      Test.make ~name:"nonbacktracking-centrality" (Staged.stage (fun () ->
          ignore (G.Centrality.non_backtracking ~direction:G.Centrality.In sub.G.Digraph.graph)));
      Test.make ~name:"module-quotient-rank" (Staged.stage (fun () ->
          ignore (Rca_core.Module_rank.rank mg)));
    ]
  in
  let benchmark test =
    let quota = Time.second 1.0 in
    let cfg = Benchmark.cfg ~limit:500 ~quota ~kde:None () in
    let measure = Toolkit.Instance.monotonic_clock in
    let raw = Benchmark.all cfg [ measure ] (Test.make_grouped ~name:"g" ~fmt:"%s %s" [ test ]) in
    let ols =
      Analyze.all
        (Analyze.ols ~bootstrap:0 ~r_square:false ~predictors:[| Measure.run |])
        measure raw
    in
    Hashtbl.iter
      (fun name result ->
        match Analyze.OLS.estimates result with
        | Some [ est ] ->
            let label =
              match String.index_opt name ' ' with
              | Some i -> String.sub name (i + 1) (String.length name - i - 1)
              | None -> name
            in
            Printf.printf "  %-32s %12.3f ms/run\n%!" label (est /. 1e6)
        | _ -> ())
      ols
  in
  List.iter benchmark tests

(* --- Parallel microbenchmark: domain-pool speedup --------------------------------------- *)

(* Sequential vs pooled edge betweenness (and one Girvan–Newman step) on
   the paper-scale GOFFGRATCH slice — the asymptotic hot path of the
   refinement loop.  Besides timing, every parallel run is differentially
   checked against the sequential reference: identical betweenness tables
   (within 1e-9 relative) and identical G-N partitions. *)
let run_micro_par () =
  hr ();
  ignore
    (time "micro-par" (fun () ->
         let fixture = Fixture.make ~inject:Experiments.goffgratch.Harness.inject config in
         let slice = goffgratch_slice fixture in
         let sub = Rca_core.Slice.subgraph slice in
         let g = G.Digraph.to_undirected sub.G.Digraph.graph in
         Printf.printf
           "domain-pool speedup on the paper-scale GOFFGRATCH slice (%d nodes, %d arcs; \
            %d cores visible)\n"
           (G.Digraph.n g) (G.Digraph.m g)
           (Domain.recommended_domain_count ());
         let timeit f =
           let t0 = Unix.gettimeofday () in
           let r = f () in
           (r, Unix.gettimeofday () -. t0)
         in
         let seq, t_seq = timeit (fun () -> G.Betweenness.edge_betweenness g) in
         Printf.printf "  edge betweenness, %-12s %8.3f s   speedup 1.00x\n%!" "1 domain"
           t_seq;
         let tables_agree a b =
           Hashtbl.length a = Hashtbl.length b
           && Hashtbl.fold
                (fun k v ok ->
                  ok
                  &&
                  match Hashtbl.find_opt b k with
                  | Some v' -> abs_float (v -. v') <= 1e-9 *. (1.0 +. abs_float v')
                  | None -> false)
                a true
         in
         List.iter
           (fun d ->
             G.Pool.with_pool d (fun pool ->
                 let par, t_par = timeit (fun () -> G.Betweenness.edge_betweenness ~pool g) in
                 Printf.printf
                   "  edge betweenness, %-12s %8.3f s   speedup %.2fx   values %s\n%!"
                   (string_of_int d ^ " domains")
                   t_par (t_seq /. t_par)
                   (if tables_agree seq par then "identical" else "MISMATCH")))
           [ 2; 4 ];
         (* one G-N split, sampled betweenness, partition identity at 4 domains *)
         let (p_seq, removed_seq), t_gn_seq =
           timeit (fun () ->
               let s = G.Community.girvan_newman_step ~approx:64 sub.G.Digraph.graph in
               (s.G.Community.partition, s.G.Community.removed_edges))
         in
         G.Pool.with_pool 4 (fun pool ->
             let (p_par, removed_par), t_gn_par =
               timeit (fun () ->
                   let s =
                     G.Community.girvan_newman_step ~approx:64 ~pool sub.G.Digraph.graph
                   in
                   (s.G.Community.partition, s.G.Community.removed_edges))
             in
             Printf.printf
               "  G-N step (approx 64), seq %.3f s vs 4 domains %.3f s   speedup %.2fx   \
                partitions %s\n%!"
               t_gn_seq t_gn_par (t_gn_seq /. t_gn_par)
               (if
                  p_seq.G.Community.labels = p_par.G.Community.labels
                  && removed_seq = removed_par
                then "identical"
                else "MISMATCH"))))

(* --- Girvan-Newman engine benchmark (gn) ------------------------------------------------ *)

(* Exact G-N to >= 8 communities on a clustered fixture: the reference
   engine (full betweenness recomputation per removal) vs the
   component-incremental CSR engine, sequentially and on a domain pool.
   Every run is differentially checked against the reference (identical
   removal sequences and partitions) before any speedup is reported;
   with --json PATH the telemetry is also written as a JSON artifact. *)

(* [clusters] gnm blobs of [size] nodes chained by [bridges] edges per
   consecutive pair: G-N must cut the bridges (highest betweenness)
   before anything else, so reaching [clusters - 2] extra components
   takes a long, measurable removal sequence. *)
let gn_fixture ~clusters ~size ~intra_m ~bridges =
  let edges = ref [] in
  for c = 0 to clusters - 1 do
    let base = c * size in
    let blob = G.Gen.gnm ~seed:(41 + c) ~n:size ~m:intra_m in
    G.Digraph.iter_edges (fun u v -> edges := (base + u, base + v) :: !edges) blob;
    if c < clusters - 1 then
      for b = 0 to bridges - 1 do
        (* distinct endpoints per bridge keep the bridges independent *)
        edges := (base + b, base + size + b) :: !edges
      done
  done;
  G.Digraph.of_edges ~n:(clusters * size) (List.rev !edges)

let json_escape s =
  String.concat "" (List.map (fun c ->
      match c with
      | '"' -> "\\\"" | '\\' -> "\\\\"
      | c when Char.code c < 0x20 -> Printf.sprintf "\\u%04x" (Char.code c)
      | c -> String.make 1 c)
      (List.init (String.length s) (String.get s)))

let run_gn_bench ?(trace = None) ~json ~domains () =
  hr ();
  if trace <> None then Rca_obs.Obs.enable ();
  ignore
    (time "gn" (fun () ->
         let clusters = 10 and size = 80 and intra_m = 300 and bridges = 2 in
         let target = 8 in
         let g = gn_fixture ~clusters ~size ~intra_m ~bridges in
         let und = G.Digraph.to_undirected g in
         Printf.printf
           "exact Girvan-Newman to %d communities: reference vs component-incremental CSR\n"
           target;
         Printf.printf
           "  fixture: %d clusters of %d nodes, %d nodes / %d arcs symmetrized (%d cores \
            visible)\n%!"
           clusters size (G.Digraph.n und) (G.Digraph.m und)
           (Domain.recommended_domain_count ());
         let timeit f =
           let t0 = Unix.gettimeofday () in
           let r = f () in
           (r, Unix.gettimeofday () -. t0)
         in
         let reference, t_ref =
           timeit (fun () -> G.Community.girvan_newman_reference ~target g)
         in
         let agrees (r : G.Community.gn_step) =
           r.G.Community.removed_edges = reference.G.Community.removed_edges
           && r.G.Community.partition.G.Community.labels
              = reference.G.Community.partition.G.Community.labels
         in
         let runs = ref [] in
         let record name dom t identical =
           runs := (name, dom, t, t_ref /. t, identical) :: !runs;
           Printf.printf "  %-28s %8.3f s   speedup %5.2fx   removals/partition %s\n%!"
             name t (t_ref /. t)
             (if identical then "identical" else "MISMATCH")
         in
         record "reference-seq" 1 t_ref true;
         let inc_seq, t_inc = timeit (fun () -> G.Community.girvan_newman ~target g) in
         record "incremental-seq" 1 t_inc (agrees inc_seq);
         List.iter
           (fun d ->
             G.Pool.with_pool d (fun pool ->
                 let inc_par, t_par =
                   timeit (fun () -> G.Community.girvan_newman ~target ~pool g)
                 in
                 record (Printf.sprintf "incremental-%d-domains" d) d t_par
                   (agrees inc_par)))
           (List.sort_uniq compare [ 2; domains ] |> List.filter (fun d -> d > 1));
         Printf.printf "  removal sequence length: %d edges cut, %d communities\n%!"
           (List.length reference.G.Community.removed_edges)
           (G.Community.community_count reference.G.Community.partition);
         (match json with
         | None -> ()
         | Some path ->
             let oc = open_out path in
             Printf.fprintf oc
               "{\n  \"bench\": \"girvan_newman\",\n  \"graph\": {\"nodes\": %d, \"arcs\": %d, \
                \"clusters\": %d},\n  \"target_communities\": %d,\n  \"removals\": %d,\n  \
                \"cores_visible\": %d,\n  \"runs\": [\n"
               (G.Digraph.n und) (G.Digraph.m und) clusters target
               (List.length reference.G.Community.removed_edges)
               (Domain.recommended_domain_count ());
             let rows = List.rev !runs in
             List.iteri
               (fun i (name, dom, t, speedup, identical) ->
                 Printf.fprintf oc
                   "    {\"name\": \"%s\", \"domains\": %d, \"seconds\": %.6f, \
                    \"speedup_vs_reference\": %.3f, \"identical_to_reference\": %b}%s\n"
                   (json_escape name) dom t speedup identical
                   (if i = List.length rows - 1 then "" else ","))
               rows;
             Printf.fprintf oc "  ]\n}\n";
             close_out oc;
             Printf.printf "  telemetry written to %s\n%!" path);
         (match trace with
         | None -> ()
         | Some path ->
             Rca_obs.Obs.disable ();
             Rca_obs.Obs.write_chrome_trace path;
             Printf.printf "  chrome trace written to %s\n%!" path);
         !runs))

(* --- end-to-end pipeline benchmark under tracing (pipeline) ----------------------------- *)

(* The GOFFGRATCH slice-and-refine loop (small scale, simulated
   sampling, no ensemble runs) executed twice: once uninstrumented,
   once with lib/obs recording.  The two results must be identical —
   instrumentation only observes — and the instrumented run's per-stage
   spans/counters become BENCH_pipeline.json (plus a Chrome trace with
   --trace).  Exits non-zero on any difference, so CI fails loudly if
   tracing ever perturbs the pipeline. *)
let run_pipeline_bench ~json ~trace ~domains ~partitioner () =
  hr ();
  let outcome =
    time "pipeline" (fun () ->
        let config = Rca_synth.Config.small in
        let fixture = Fixture.make ~inject:Experiments.goffgratch.Harness.inject config in
        let bug_nodes =
          Fixture.bug_nodes fixture ~canonicals:Experiments.goffgratch.Harness.bug_canonicals
        in
        let detect = Rca_core.Detector.reachability fixture.Fixture.mg ~bug_nodes in
        let run () =
          Rca_core.Pipeline.run ~keep_module:Rca_synth.Outputs.is_cam_module ~min_cluster:4
            ~gn_approx:128 ~stop_size:30 ~partitioner ~domains fixture.Fixture.mg
            ~outputs:[ "cloud"; "cldtot"; "aqsnow"; "freqs"; "ccn3" ]
            ~detect
        in
        let timeit f =
          let t0 = Unix.gettimeofday () in
          let r = f () in
          (r, Unix.gettimeofday () -. t0)
        in
        let plain, t_plain = timeit run in
        Rca_obs.Obs.enable ();
        let traced, t_traced = timeit run in
        Rca_obs.Obs.disable ();
        let open Rca_core in
        let identical =
          plain.Pipeline.slice.Slice.nodes = traced.Pipeline.slice.Slice.nodes
          && plain.Pipeline.slice.Slice.targets = traced.Pipeline.slice.Slice.targets
          && plain.Pipeline.result = traced.Pipeline.result
        in
        let r = plain.Pipeline.result in
        Printf.printf
          "end-to-end pipeline (GOFFGRATCH, small scale, %d domain%s): slice %d nodes, %d \
           iterations, outcome %s\n"
          domains
          (if domains = 1 then "" else "s")
          (Slice.size plain.Pipeline.slice)
          (List.length r.Refine.iterations)
          (Refine.outcome_string r.Refine.outcome);
        Printf.printf "  uninstrumented %8.3f s\n  instrumented   %8.3f s   results %s\n%!"
          t_plain t_traced
          (if identical then "identical" else "MISMATCH");
        List.iter
          (fun name ->
            let c = Rca_obs.Obs.span_count name in
            if c > 0 then
              Printf.printf "  %-24s %5d spans %10.3f ms\n" name c
                (Rca_obs.Obs.span_total_ms name))
          [
            "pipeline.run"; "slice.of_internals"; "refine.run"; "refine.iteration";
            "refine.detect"; "gn.step"; "gn.recompute"; "brandes.csr_sources";
            "centrality.eigenvector"; "pool.run_chunks";
          ];
        (match trace with
        | None -> ()
        | Some path ->
            Rca_obs.Obs.write_chrome_trace path;
            Printf.printf "  chrome trace written to %s\n%!" path);
        (match json with
        | None -> ()
        | Some path ->
            let oc = open_out path in
            Printf.fprintf oc
              "{\n  \"bench\": \"pipeline\",\n  \"scale\": \"small\",\n  \"domains\": %d,\n  \
               \"slice_nodes\": %d,\n  \"iterations\": %d,\n  \"outcome\": \"%s\",\n  \
               \"seconds_uninstrumented\": %.6f,\n  \"seconds_instrumented\": %.6f,\n  \
               \"identical\": %b,\n  \"obs\": %s\n}\n"
              domains
              (Rca_core.Slice.size plain.Pipeline.slice)
              (List.length r.Refine.iterations)
              (Refine.outcome_string r.Refine.outcome)
              t_plain t_traced identical
              (Rca_obs.Obs.summary_json ());
            close_out oc;
            Printf.printf "  telemetry written to %s\n%!" path);
        identical)
  in
  if not outcome then begin
    Printf.eprintf "pipeline bench: instrumented and uninstrumented results DIFFER\n";
    exit 1
  end

(* --- masked refinement engine benchmark (refine) ---------------------------------------- *)

(* The GOFFGRATCH slice-and-refine loop run on both node-set engines —
   the list-based reference (induced-subgraph rebuild per ancestor
   computation) and the masked-CSR engine (one frozen snapshot, removals
   as bitmask flips) — sequentially and pooled.  Every pair of runs is
   checked for full identity (slice nodes/targets, every iteration,
   final nodes, outcome, located bugs) before any speedup is reported;
   a traced run per engine extracts the per-iteration span timings the
   masked engine is meant to shrink.  Exits non-zero on any difference,
   so CI fails loudly if the engines ever diverge. *)
let run_refine_bench ~json ~trace ~domains ~partitioner () =
  hr ();
  let ok =
    time "refine" (fun () ->
        let config = Rca_synth.Config.small in
        let fixture = Fixture.make ~inject:Experiments.goffgratch.Harness.inject config in
        let bug_nodes =
          Fixture.bug_nodes fixture ~canonicals:Experiments.goffgratch.Harness.bug_canonicals
        in
        let mg = fixture.Fixture.mg in
        let detect = Rca_core.Detector.reachability mg ~bug_nodes in
        let run ~engine ~domains () =
          Rca_core.Pipeline.run ~keep_module:Rca_synth.Outputs.is_cam_module ~min_cluster:4
            ~gn_approx:128 ~stop_size:30 ~partitioner ~domains ~engine mg
            ~outputs:[ "cloud"; "cldtot"; "aqsnow"; "freqs"; "ccn3" ]
            ~detect
        in
        (* best-of-3 wall clock: the engines differ by bookkeeping that
           is small next to the shared G-N kernel, so single-shot
           timings drown in scheduler/GC noise *)
        let timeit f =
          let best = ref infinity in
          let result = ref None in
          for _ = 1 to 3 do
            let t0 = Unix.gettimeofday () in
            let r = f () in
            let dt = Unix.gettimeofday () -. t0 in
            if dt < !best then best := dt;
            result := Some r
          done;
          (Option.get !result, !best)
        in
        let open Rca_core in
        let same a b =
          a.Pipeline.slice.Slice.nodes = b.Pipeline.slice.Slice.nodes
          && a.Pipeline.slice.Slice.targets = b.Pipeline.slice.Slice.targets
          && a.Pipeline.result = b.Pipeline.result
          && Pipeline.located_bugs mg a ~bug_nodes = Pipeline.located_bugs mg b ~bug_nodes
        in
        let all_ok = ref true in
        let baseline = ref None in
        let runs = ref [] in
        let record engine dom t identical speedup =
          runs := (engine, dom, t, identical, speedup) :: !runs;
          Printf.printf "  %-8s %2d domain%s %8.3f s   speedup vs list %5.2fx   results %s\n%!"
            engine dom
            (if dom = 1 then " " else "s")
            t speedup
            (if identical then "identical" else "MISMATCH")
        in
        let dom_counts =
          List.sort_uniq compare [ 1; domains ] |> List.filter (fun d -> d >= 1)
        in
        Printf.printf
          "masked-CSR refinement engine vs list reference (GOFFGRATCH, small scale)\n%!";
        List.iter
          (fun d ->
            let list_r, t_list = timeit (run ~engine:`List ~domains:d) in
            let masked_r, t_masked = timeit (run ~engine:`Masked ~domains:d) in
            let identical =
              same list_r masked_r
              &&
              match !baseline with
              | None ->
                  baseline := Some list_r;
                  true
              | Some b -> same b list_r
            in
            if not identical then all_ok := false;
            record "list" d t_list identical 1.0;
            record "masked" d t_masked identical (t_list /. t_masked))
          dom_counts;
        (match !baseline with
        | Some r ->
            Printf.printf "  slice %d nodes, %d iterations, outcome %s, %d/%d bugs located\n%!"
              (Slice.size r.Pipeline.slice)
              (List.length r.Pipeline.result.Refine.iterations)
              (Refine.outcome_string r.Pipeline.result.Refine.outcome)
              (List.length (Pipeline.located_bugs mg r ~bug_nodes))
              (List.length bug_nodes)
        | None -> ());
        (* One traced sequential run per engine: the per-iteration
           "refine.iteration" spans are the telemetry the masked engine
           is meant to shrink.  The masked run goes last so a --trace
           artifact shows the masked engine. *)
        let iteration_ms engine_name engine =
          (* level the GC playing field: the first traced run leaves a
             grown heap behind that would tax the second one *)
          Gc.compact ();
          Rca_obs.Obs.enable ();
          ignore (run ~engine ~domains:1 ());
          Rca_obs.Obs.disable ();
          let iters =
            List.filter_map
              (fun s ->
                if s.Rca_obs.Obs.span_name = "refine.iteration" then
                  Some (s.Rca_obs.Obs.dur_us /. 1000.0)
                else None)
              (Rca_obs.Obs.spans ())
          in
          let freeze_ms = Rca_obs.Obs.span_total_ms "frozen.freeze" in
          let slice_ms = Rca_obs.Obs.span_total_ms "slice.of_internals" in
          ignore engine_name;
          (iters, freeze_ms, slice_ms)
        in
        let list_iters, _, list_slice_ms = iteration_ms "list" `List in
        let masked_iters, freeze_ms, masked_slice_ms = iteration_ms "masked" `Masked in
        (match trace with
        | None -> ()
        | Some path ->
            Rca_obs.Obs.write_chrome_trace path;
            Printf.printf "  chrome trace (masked run) written to %s\n%!" path);
        Printf.printf "  per-iteration spans (sequential, ms):\n";
        Printf.printf "    %-10s %12s %12s %8s\n" "iteration" "list" "masked" "speedup";
        List.iteri
          (fun i lm ->
            match List.nth_opt masked_iters i with
            | Some mm ->
                Printf.printf "    %-10d %12.3f %12.3f %7.2fx\n" (i + 1) lm mm (lm /. mm)
            | None -> ())
          list_iters;
        Printf.printf "    slice: list %.3f ms, masked %.3f ms (freeze %.3f ms)\n%!"
          list_slice_ms masked_slice_ms freeze_ms;
        (* The primitives the engines actually differ on, timed in
           isolation over many repetitions: the restricted-ancestors
           closure (one induced-subgraph rebuild per call vs one masked
           reverse BFS) and the slice itself. *)
        let slice =
          match !baseline with
          | Some r -> r.Pipeline.slice
          | None -> assert false
        in
        let fz = Frozen.freeze mg.MG.graph in
        let alive = Frozen.mask_of_list fz slice.Slice.nodes in
        let reps = 50 in
        let time_reps f =
          let t0 = Unix.gettimeofday () in
          for _ = 1 to reps do
            ignore (Sys.opaque_identity (f ()))
          done;
          (Unix.gettimeofday () -. t0) *. 1000.0 /. float_of_int reps
        in
        let anc_list =
          time_reps (fun () ->
              Refine.ancestors_within mg slice.Slice.nodes slice.Slice.targets)
        in
        let anc_masked =
          time_reps (fun () -> Frozen.ancestors fz ~alive slice.Slice.targets)
        in
        let slice_list =
          time_reps (fun () ->
              Slice.of_outputs ~keep_module:Rca_synth.Outputs.is_cam_module ~min_cluster:4
                ~engine:`List mg
                [ "cloud"; "cldtot"; "aqsnow"; "freqs"; "ccn3" ])
        in
        let slice_masked =
          time_reps (fun () ->
              Slice.of_outputs ~keep_module:Rca_synth.Outputs.is_cam_module ~min_cluster:4
                ~engine:`Masked ~frozen:fz mg
                [ "cloud"; "cldtot"; "aqsnow"; "freqs"; "ccn3" ])
        in
        Printf.printf
          "  engine primitives (%d reps, ms/call):\n\
          \    ancestors-within: list %8.3f  masked %8.3f   speedup %6.2fx\n\
          \    slice:            list %8.3f  masked %8.3f   speedup %6.2fx\n%!"
          reps anc_list anc_masked (anc_list /. anc_masked) slice_list slice_masked
          (slice_list /. slice_masked);
        (match json with
        | None -> ()
        | Some path ->
            let oc = open_out path in
            Printf.fprintf oc
              "{\n  \"bench\": \"refine\",\n  \"scale\": \"small\",\n  \"domains\": %d,\n  \
               \"identical\": %b,\n  \"runs\": [\n"
              domains !all_ok;
            let rows = List.rev !runs in
            List.iteri
              (fun i (engine, dom, t, identical, speedup) ->
                Printf.fprintf oc
                  "    {\"engine\": \"%s\", \"domains\": %d, \"seconds\": %.6f, \
                   \"speedup_vs_list\": %.3f, \"identical\": %b}%s\n"
                  (json_escape engine) dom t speedup identical
                  (if i = List.length rows - 1 then "" else ","))
              rows;
            Printf.fprintf oc "  ],\n  \"iterations_ms\": [\n";
            let n_iters = List.length list_iters in
            List.iteri
              (fun i lm ->
                let mm = Option.value ~default:0.0 (List.nth_opt masked_iters i) in
                Printf.fprintf oc
                  "    {\"iteration\": %d, \"list_ms\": %.3f, \"masked_ms\": %.3f}%s\n"
                  (i + 1) lm mm
                  (if i = n_iters - 1 then "" else ","))
              list_iters;
            Printf.fprintf oc
              "  ],\n  \"slice_ms\": {\"list\": %.3f, \"masked\": %.3f, \"freeze\": %.3f},\n  \
               \"primitives_ms\": {\"ancestors_list\": %.4f, \"ancestors_masked\": %.4f, \
               \"slice_list\": %.4f, \"slice_masked\": %.4f},\n  \
               \"obs\": %s\n}\n"
              list_slice_ms masked_slice_ms freeze_ms anc_list anc_masked slice_list
              slice_masked
              (Rca_obs.Obs.summary_json ());
            close_out oc;
            Printf.printf "  telemetry written to %s\n%!" path);
        !all_ok)
  in
  if not ok then begin
    Printf.eprintf "refine bench: masked and list engines DIFFER\n";
    exit 1
  end

(* --- detector scaling trajectory (scaling) ---------------------------------------------- *)

(* The Girvan–Newman wall, measured: partition the GOFFGRATCH slice at
   small / paper / huge scale with each community detector (exact
   incremental G-N, modularity-greedy) and record seconds + partition
   quality per (scale, detector); at small and paper also run the
   end-to-end pipeline per detector and require located_bugs to be
   identical — the oracle that gates the speedup.
   Exact G-N is skipped at huge (that infeasibility is the point of the
   fast detectors).  Also times the paper-scale pipeline at 1 vs
   [domains] domains: with adaptive pool usage the parallel run must not
   be slower than sequential.  Gates (exit nonzero on failure): greedy
   >= 10x exact on the paper slice, identical located_bugs across
   detectors, a modularity floor for greedy, parallel <= ~sequential.
   Everything is written to BENCH_scaling.json (--json path). *)
let run_scaling_bench ~json ~domains () =
  hr ();
  let ok =
    time "scaling" (fun () ->
        let module Q = G.Quality in
        let module R = Rca_core.Refine in
        let timeit f =
          let t0 = Unix.gettimeofday () in
          let r = f () in
          (r, Unix.gettimeofday () -. t0)
        in
        let outputs = [ "cloud"; "cldtot"; "aqsnow"; "freqs"; "ccn3" ] in
        let all_ok = ref true in
        let gate name cond =
          Printf.printf "  gate %-52s %s\n%!" name (if cond then "PASS" else "FAIL");
          if not cond then all_ok := false
        in
        let gates = ref [] in
        let checked name cond =
          gates := (name, cond) :: !gates;
          gate name cond
        in
        let scale_jsons = ref [] in
        let paper_exact_t = ref nan in
        let paper_greedy_t = ref nan in
        let paper_greedy_q = ref nan in
        let located_ok = ref true in
        Printf.printf "detector scaling on the GOFFGRATCH slice (%d cores visible)\n%!"
          (Domain.recommended_domain_count ());
        List.iter
          (fun (label, config, run_exact, run_pipelines) ->
            let fixture =
              Fixture.make ~inject:Experiments.goffgratch.Harness.inject config
            in
            let mg = fixture.Fixture.mg in
            let bug_nodes =
              Fixture.bug_nodes fixture
                ~canonicals:Experiments.goffgratch.Harness.bug_canonicals
            in
            let detect = Rca_core.Detector.reachability mg ~bug_nodes in
            let slice = goffgratch_slice fixture in
            let sub = Rca_core.Slice.subgraph slice in
            let sg = sub.G.Digraph.graph in
            Printf.printf
              "  %s: metagraph %d nodes / %d arcs, slice %d nodes / %d arcs\n%!" label
              (MG.n_nodes mg) (G.Digraph.m mg.MG.graph) (G.Digraph.n sg) (G.Digraph.m sg);
            (* one G-N split / one partition per detector, timed *)
            let partition_rows = ref [] in
            let record_partition name t (p : G.Community.partition) =
              let q = Q.of_partition sg p in
              partition_rows := (name, t, q) :: !partition_rows;
              Printf.printf "    partition %-12s %9.3f s   %4d communities   Q %.4f\n%!"
                name t q.Q.q_communities q.Q.q_modularity;
              q
            in
            if run_exact then begin
              let step, t = timeit (fun () -> G.Community.girvan_newman_step sg) in
              ignore (record_partition "gn" t step.G.Community.partition);
              if label = "paper" then paper_exact_t := t
            end;
            let greedy_p, t_greedy = timeit (fun () -> G.Community.modularity_greedy sg) in
            let greedy_q = record_partition "greedy" t_greedy greedy_p in
            if label = "paper" then begin
              paper_greedy_t := t_greedy;
              paper_greedy_q := greedy_q.Q.q_modularity
            end;
            (* end-to-end oracle per detector *)
            let pipeline_rows = ref [] in
            if run_pipelines then begin
              let located_sets =
                List.map
                  (fun det ->
                    let name = R.partitioner_string det in
                    let pl, t =
                      timeit (fun () ->
                          Rca_core.Pipeline.run
                            ~keep_module:Rca_synth.Outputs.is_cam_module ~min_cluster:4
                            ~gn_approx:128 ~stop_size:30 ~partitioner:det mg ~outputs
                            ~detect)
                    in
                    let located = Rca_core.Pipeline.located_bugs mg pl ~bug_nodes in
                    let r = pl.Rca_core.Pipeline.result in
                    Printf.printf
                      "    pipeline  %-12s %9.3f s   %d iterations, outcome %s, %d/%d \
                       bugs located\n%!"
                      name t
                      (List.length r.Rca_core.Refine.iterations)
                      (R.outcome_string r.Rca_core.Refine.outcome)
                      (List.length located) (List.length bug_nodes);
                    pipeline_rows :=
                      ( name,
                        t,
                        List.length r.Rca_core.Refine.iterations,
                        R.outcome_string r.Rca_core.Refine.outcome,
                        located )
                      :: !pipeline_rows;
                    located)
                  R.partitioners
              in
              match located_sets with
              | ref_set :: rest ->
                  if not (List.for_all (fun s -> s = ref_set) rest) then
                    located_ok := false
              | [] -> ()
            end;
            let partition_json =
              List.rev_map
                (fun (name, t, q) ->
                  Printf.sprintf
                    {|        {"detector": "%s", "seconds": %.6f, "communities": %d, "modularity": %.6f, "mean_conductance": %.6f}|}
                    name t q.Q.q_communities q.Q.q_modularity q.Q.q_mean_conductance)
                !partition_rows
            in
            let pipeline_json =
              List.rev_map
                (fun (name, t, iters, outcome, located) ->
                  Printf.sprintf
                    {|        {"detector": "%s", "seconds": %.6f, "iterations": %d, "outcome": "%s", "located_bugs": [%s]}|}
                    name t iters outcome
                    (String.concat ", " (List.map string_of_int located)))
                !pipeline_rows
            in
            scale_jsons :=
              Printf.sprintf
                "    {\"scale\": \"%s\", \"metagraph_nodes\": %d, \"metagraph_arcs\": \
                 %d, \"slice_nodes\": %d, \"slice_arcs\": %d,\n\
                 \      \"partition\": [\n\
                 %s\n\
                 \      ],\n\
                 \      \"pipeline\": [\n\
                 %s\n\
                 \      ]}"
                label (MG.n_nodes mg)
                (G.Digraph.m mg.MG.graph)
                (G.Digraph.n sg) (G.Digraph.m sg)
                (String.concat ",\n" partition_json)
                (String.concat ",\n" pipeline_json)
              :: !scale_jsons)
          [
            ("small", Rca_synth.Config.small, true, true);
            ("paper", config, true, true);
            ("huge", Rca_synth.Config.huge, false, false);
          ];
        (* adaptive parallelism: the paper-scale pipeline must not get
           slower when domains are requested (the pre-fix regression was
           2.5x slower at 4 domains on a 1-core container) *)
        let fixture = Fixture.make ~inject:Experiments.goffgratch.Harness.inject config in
        let mg = fixture.Fixture.mg in
        let bug_nodes =
          Fixture.bug_nodes fixture
            ~canonicals:Experiments.goffgratch.Harness.bug_canonicals
        in
        let detect = Rca_core.Detector.reachability mg ~bug_nodes in
        let pipeline_at d =
          let best = ref infinity in
          for _ = 1 to 2 do
            let _, t =
              timeit (fun () ->
                  Rca_core.Pipeline.run ~keep_module:Rca_synth.Outputs.is_cam_module
                    ~min_cluster:4 ~gn_approx:128 ~stop_size:30 ~domains:d mg ~outputs
                    ~detect)
            in
            if t < !best then best := t
          done;
          !best
        in
        let t_seq = pipeline_at 1 in
        let t_par = pipeline_at domains in
        Printf.printf
          "  paper pipeline, 1 domain %8.3f s vs %d domains %8.3f s (ratio %.2f)\n%!"
          t_seq domains t_par (t_par /. t_seq);
        let speedup = !paper_exact_t /. !paper_greedy_t in
        Printf.printf "  paper partition: exact %.3f s, greedy %.4f s -> %.0fx\n%!"
          !paper_exact_t !paper_greedy_t speedup;
        let greedy_modularity_floor = 0.30 in
        checked "greedy >= 10x exact G-N on the paper slice" (speedup >= 10.0);
        checked "located_bugs identical across detectors" !located_ok;
        checked
          (Printf.sprintf "greedy modularity >= %.2f on the paper slice"
             greedy_modularity_floor)
          (!paper_greedy_q >= greedy_modularity_floor);
        checked
          (Printf.sprintf "%d-domain pipeline <= 1.15x sequential" domains)
          (t_par <= 1.15 *. t_seq);
        (match json with
        | None -> ()
        | Some path ->
            let oc = open_out path in
            Printf.fprintf oc
              "{\n\
              \  \"bench\": \"scaling\",\n\
              \  \"cores_visible\": %d,\n\
              \  \"domains_requested\": %d,\n\
              \  \"scales\": [\n\
               %s\n\
              \  ],\n\
              \  \"parallel\": {\"scale\": \"paper\", \"seconds_sequential\": %.6f, \
               \"seconds_parallel\": %.6f, \"ratio\": %.4f},\n\
              \  \"paper_speedup_greedy_vs_exact\": %.2f,\n\
              \  \"gates\": {\n\
               %s\n\
              \  }\n\
               }\n"
              (Domain.recommended_domain_count ())
              domains
              (String.concat ",\n" (List.rev !scale_jsons))
              t_seq t_par (t_par /. t_seq) speedup
              (String.concat ",\n"
                 (List.rev_map
                    (fun (name, cond) ->
                      Printf.sprintf {|    "%s": %b|} (json_escape name) cond)
                    !gates));
            close_out oc;
            Printf.printf "  telemetry written to %s\n%!" path);
        !all_ok)
  in
  if not ok then begin
    Printf.eprintf "scaling bench: a gate failed\n";
    exit 1
  end

(* --- static analysis: lint + differential oracle on the small model ------------------- *)

let run_lint_bench ~json () =
  hr ();
  let ok =
    time "lint" (fun () ->
        let module An = Rca_analysis.Analysis in
        let module Or = Rca_analysis.Oracle in
        let module Di = Rca_analysis.Diagnostics in
        let config = Rca_synth.Config.small in
        let fixture = Fixture.make config in
        let timeit f =
          let t0 = Unix.gettimeofday () in
          let r = f () in
          (r, Unix.gettimeofday () -. t0)
        in
        let an, t_analyze =
          timeit (fun () -> An.analyze fixture.Fixture.covered_program)
        in
        let resolution, t_resolve =
          timeit (fun () -> Rca_analysis.Resolve.program fixture.Fixture.covered_program)
        in
        let ty_diags, t_typecheck =
          timeit (fun () ->
              List.concat_map
                (fun sa -> Rca_analysis.Typecheck.of_sub sa.An.sa_scope)
                an.An.subs)
        in
        let call_diags, t_callcheck =
          timeit (fun () ->
              List.concat_map
                (fun sa -> Rca_analysis.Callcheck.of_sub sa.An.sa_scope)
                an.An.subs)
        in
        let oracle, t_oracle = timeit (fun () -> An.check_oracle an fixture.Fixture.mg) in
        let dead = An.dead_node_ids an fixture.Fixture.mg in
        Printf.printf
          "static analysis (small scale): %d subprograms, %d symbols, %d diagnostics, %d \
           static-dead nodes\n"
          (List.length an.An.subs)
          (Rca_analysis.Resolve.n_symbols resolution)
          (List.length an.An.diags) (List.length dead);
        Printf.printf
          "  analyze   %8.3f s\n  resolve   %8.3f s\n  typecheck %8.3f s   %d strict \
           diagnostics\n  callcheck %8.3f s   %d strict diagnostics\n  oracle    %8.3f s   \
           %d pairs / %d edges, %d mismatches, %d orphans\n%!"
          t_analyze t_resolve t_typecheck (List.length ty_diags) t_callcheck
          (List.length call_diags) t_oracle oracle.Or.rp_pairs oracle.Or.rp_edges
          (List.length oracle.Or.rp_mismatches)
          (List.length oracle.Or.rp_orphans);
        (match json with
        | None -> ()
        | Some path ->
            let oc = open_out path in
            Printf.fprintf oc
              "{\n  \"bench\": \"lint\",\n  \"scale\": \"small\",\n  \"subprograms\": %d,\n  \
               \"symbols\": %d,\n  \"diagnostics\": %d,\n  \"errors\": %d,\n  \
               \"static_dead_nodes\": %d,\n  \"typecheck_diagnostics\": %d,\n  \
               \"callcheck_diagnostics\": %d,\n  \"seconds_analyze\": %.6f,\n  \
               \"seconds_resolve\": %.6f,\n  \"seconds_typecheck\": %.6f,\n  \
               \"seconds_callcheck\": %.6f,\n  \"seconds_oracle\": %.6f,\n  \"oracle\": %s\n}\n"
              (List.length an.An.subs)
              (Rca_analysis.Resolve.n_symbols resolution)
              (List.length an.An.diags)
              (Di.count_severity an.An.diags Di.Error)
              (List.length dead) (List.length ty_diags) (List.length call_diags) t_analyze
              t_resolve t_typecheck t_callcheck t_oracle (Or.summary_json oracle);
            close_out oc;
            Printf.printf "  telemetry written to %s\n%!" path);
        Or.ok oracle)
  in
  if not ok then begin
    Printf.eprintf "lint bench: differential oracle found mismatches or orphans\n";
    exit 1
  end

(* --- fault-injection campaign ---------------------------------------------------------- *)

(* Run the tiny-scale fault campaign twice with one seed and require the
   two scorecards to be byte-identical — the determinism regression the
   corpus's single SplitMix seed promises — then write the scorecard
   artifact (CAMPAIGN_scorecard.json, or the --json path). *)
let run_campaign_bench ~json ~trace ~domains ~partitioner () =
  hr ();
  let module Campaign = Rca_faults.Campaign in
  if trace <> None then Rca_obs.Obs.enable ();
  time "campaign" (fun () ->
      let params =
        {
          (Campaign.default_params Rca_synth.Config.tiny) with
          Campaign.domains;
          partitioner;
        }
      in
      let timeit f =
        let t0 = Unix.gettimeofday () in
        let r = f () in
        (r, Unix.gettimeofday () -. t0)
      in
      let c1, t1 = timeit (fun () -> Campaign.run params) in
      let c2, t2 = timeit (fun () -> Campaign.run params) in
      let s1 = Campaign.scorecard_json c1 and s2 = Campaign.scorecard_json c2 in
      Format.printf "%a" Campaign.pp c1;
      Printf.printf "  run 1  %8.3f s\n  run 2  %8.3f s\n" t1 t2;
      Printf.printf "  scorecards byte-identical: %b\n%!" (s1 = s2);
      let path = Option.value ~default:"CAMPAIGN_scorecard.json" json in
      let oc = open_out path in
      output_string oc s1;
      close_out oc;
      Printf.printf "  scorecard written to %s\n%!" path;
      (match trace with
      | None -> ()
      | Some path ->
          Rca_obs.Obs.write_chrome_trace path;
          Printf.printf "  chrome trace written to %s\n%!" path);
      if s1 <> s2 then begin
        Printf.eprintf "campaign bench: same-seed scorecards differ\n";
        exit 1
      end)

(* --- serve: snapshot + query-daemon benchmark ------------------------------------------- *)

(* Compile the small-scale GOFFGRATCH model to a snapshot, verify the
   load path is >= 50x faster than the full build, fork a daemon over a
   Unix socket, and drive it: an identity check (a served default query
   must equal an in-process single-shot pipeline field for field), a
   cold pass over distinct single-target keys, a warm repeat of the
   same keys, a 6-connection stampede on one fresh key to observe
   request coalescing, a concurrency pass (cached queries must stay
   fast while a slow exact-GN job occupies the work queue), and a
   restart pass (graceful shutdown persists the cache sidecar; a fresh
   daemon reloads it and answers warm).  Gates: load speedup >= 50,
   warm p50 < cold p50, zero protocol errors, identity (including
   after restart), stampede coalesced, concurrent fast p50 < cold p50
   with the p99 tail bounded by half the slow job's runtime, and
   warm-restart p50 within 2x of warm p50.  Telemetry goes to
   BENCH_serve.json (or the --json path); the sidecar stays in the CWD
   as BENCH_serve.cache for CI artifact upload. *)
let run_serve_bench ~json () =
  hr ();
  let module Snap = Rca_serve.Snapshot in
  let module Server = Rca_serve.Server in
  let module Client = Rca_serve.Client in
  let module J = Rca_serve.Jsonio in
  time "serve" (fun () ->
      let config = Rca_synth.Config.small in
      let spec = Experiments.goffgratch in
      let now_ms () = Int64.to_float (Rca_obs.Obs.monotonic_ns ()) /. 1e6 in
      let timeit f =
        let t0 = now_ms () in
        let r = f () in
        (r, now_ms () -. t0)
      in
      (* 1. full build: parse -> coverage -> metagraph -> selection -> freeze *)
      let (fixture, sel, bug_nodes, frozen), t_build =
        timeit (fun () ->
            let fixture = Fixture.make ~inject:spec.Harness.inject config in
            let p = Harness.default_params config in
            let sel = Harness.select_affected spec p fixture in
            let bug_nodes =
              Fixture.bug_nodes fixture ~canonicals:spec.Harness.bug_canonicals
            in
            let frozen = Rca_core.Frozen.freeze fixture.Fixture.mg.MG.graph in
            (fixture, sel, bug_nodes, frozen))
      in
      let mg = fixture.Fixture.mg in
      let keep_modules =
        if spec.Harness.restrict_to_cam then
          Some
            (Array.to_list mg.MG.node_meta
            |> List.map (fun nd -> nd.MG.module_)
            |> List.sort_uniq compare
            |> List.filter Rca_synth.Outputs.is_cam_module)
        else None
      in
      let snap =
        {
          Snap.version = Snap.current_version;
          fingerprint = "bench-serve small GOFFGRATCH";
          scale = "small";
          experiment = spec.Harness.name;
          mg;
          frozen;
          keep_modules;
          bug_nodes;
          default_targets = sel.Harness.sel_affected;
        }
      in
      let dir = Filename.temp_file "rca_serve_bench" "" in
      Sys.remove dir;
      Unix.mkdir dir 0o700;
      let snap_path = Filename.concat dir "model.rcasnap" in
      let sock_path = Filename.concat dir "rca.sock" in
      let (), t_save = timeit (fun () -> Snap.save snap_path snap) in
      (* 2. timed load vs the full build *)
      let loaded, t_load =
        timeit (fun () ->
            match Snap.load snap_path with
            | Ok s -> s
            | Error msg -> failwith ("snapshot load failed: " ^ msg))
      in
      let speedup = if t_load > 0.0 then t_build /. t_load else infinity in
      Printf.printf
        "snapshot: build %8.1f ms   save %6.1f ms   load %6.1f ms   speedup %.0fx\n%!"
        t_build t_save t_load speedup;
      (* 3. fork the daemon over the loaded snapshot.  The persisted-cache
         sidecar lands in the CWD so CI can pick it up as an artifact; a
         stale one from a previous run is removed so the first daemon
         starts provably cold. *)
      let cache_path = "BENCH_serve.cache" in
      if Sys.file_exists cache_path then Sys.remove cache_path;
      let fork_daemon () =
        flush stdout;
        flush stderr;
        match Unix.fork () with
        | 0 ->
            (try
               ignore
                 (Server.serve ~cache_capacity:64 ~workers:1 ~cache_path
                    (`Unix sock_path) loaded)
             with _ -> ());
            Unix._exit 0
        | pid -> pid
      in
      let child = fork_daemon () in
      let connect_retry () =
        let rec go attempts =
          match Client.connect (`Unix sock_path) with
          | conn -> conn
          | exception Unix.Unix_error _ when attempts > 0 ->
              Unix.sleepf 0.05;
              go (attempts - 1)
        in
        go 100
      in
      let conn = connect_retry () in
      (match Client.request conn (J.Obj [ ("op", J.Str "ping") ]) with
      | Ok _ -> ()
      | Error msg -> failwith ("ping failed: " ^ msg));
      let query fields = Client.request conn (J.Obj (("op", J.Str "query") :: fields)) in
      let get_reply = function
        | Ok r ->
            if J.member "status" r <> Some (J.Str "ok") then
              failwith ("query error reply: " ^ J.to_string r);
            r
        | Error msg -> failwith ("query failed: " ^ msg)
      in
      let field_int r name =
        match Option.bind (J.member name r) J.int_opt with
        | Some i -> i
        | None -> failwith ("missing field " ^ name)
      in
      let field_str r name =
        match Option.bind (J.member name r) J.string_opt with
        | Some s -> s
        | None -> failwith ("missing field " ^ name)
      in
      (* 4. identity: the served default query (gn, the harness's
         gn_approx) against the in-process single-shot pipeline *)
      let targets = List.sort_uniq compare sel.Harness.sel_affected in
      let keep_module =
        if spec.Harness.restrict_to_cam then Rca_synth.Outputs.is_cam_module
        else fun _ -> true
      in
      let reference =
        Rca_core.Pipeline.run ~keep_module ~min_cluster:4 ~m_sample:10 ~gn_approx:128
          ~stop_size:30 mg ~outputs:targets
          ~detect:(Rca_core.Detector.reachability mg ~bug_nodes)
      in
      let ref_result = reference.Rca_core.Pipeline.result in
      let ref_located =
        Rca_core.Pipeline.located_bugs mg reference ~bug_nodes
        |> List.map (fun id -> (MG.node mg id).MG.unique)
      in
      (* Field-for-field comparison of a served default-query reply
         against the in-process reference; reused after the warm restart
         to confirm the reloaded cache replays the same payload. *)
      let payload_matches served =
        let served_candidates =
          match Option.bind (J.member "candidates" served) J.list_opt with
          | None -> failwith "missing candidates"
          | Some items ->
              List.map
                (fun item ->
                  ( field_str item "name",
                    field_str item "module",
                    field_str item "subprogram",
                    field_int item "line" ))
                items
        in
        let served_located =
          match Option.bind (J.member "located_bugs" served) J.list_opt with
          | None -> failwith "missing located_bugs"
          | Some items -> List.filter_map J.string_opt items
        in
        field_int served "slice_nodes"
        = List.length reference.Rca_core.Pipeline.slice.Rca_core.Slice.nodes
        && field_int served "iterations"
           = List.length ref_result.Rca_core.Refine.iterations
        && field_str served "outcome"
           = Rca_core.Refine.outcome_string ref_result.Rca_core.Refine.outcome
        && field_int served "final_nodes"
           = List.length ref_result.Rca_core.Refine.final_nodes
        && served_candidates = Rca_core.Pipeline.candidates mg reference
        && served_located = ref_located
      in
      let served =
        get_reply (query [ ("detector", J.Str "gn"); ("gn_approx", J.num 128) ])
      in
      let identity = payload_matches served in
      Printf.printf "identity vs single-shot pipeline: %b\n%!" identity;
      (* 5. cold pass: distinct single-target keys, fast detector *)
      let labels =
        List.filter
          (fun e -> Hashtbl.mem mg.MG.io_map e.Rca_synth.Outputs.output)
          Rca_synth.Outputs.catalogue
        |> List.map (fun e -> e.Rca_synth.Outputs.output)
        |> List.sort_uniq compare
      in
      let one label =
        timeit (fun () ->
            get_reply
              (query [ ("targets", J.Arr [ J.Str label ]); ("detector", J.Str "greedy") ]))
      in
      let cold = List.map (fun l -> snd (one l)) labels in
      let warm =
        List.map
          (fun l ->
            let r, t = one l in
            if Option.bind (J.member "cached" r) (function J.Bool b -> Some b | _ -> None)
               <> Some true
            then failwith ("warm query not cached: " ^ l);
            t)
          labels
      in
      let percentile samples p =
        let arr = Array.of_list samples in
        Array.sort compare arr;
        let n = Array.length arr in
        arr.(min (n - 1) (int_of_float (p *. float_of_int n)))
      in
      let cold_p50 = percentile cold 0.5 and cold_p99 = percentile cold 0.99 in
      let warm_p50 = percentile warm 0.5 and warm_p99 = percentile warm 0.99 in
      let qps samples =
        float_of_int (List.length samples) /. (List.fold_left ( +. ) 0.0 samples /. 1e3)
      in
      Printf.printf
        "traffic: %d keys   cold p50 %8.2f ms  p99 %8.2f ms  (%.0f q/s)\n\
        \                   warm p50 %8.2f ms  p99 %8.2f ms  (%.0f q/s)\n%!"
        (List.length labels) cold_p50 cold_p99 (qps cold) warm_p50 warm_p99 (qps warm);
      (* 6. stampede: fill the daemon with a slow exact-GN query, then
         burst one fresh key over 6 connections so the whole burst is
         drained in a single select round and coalesces *)
      let burst_targets =
        match labels with a :: b :: _ -> [ a; b ] | _ -> targets
      in
      let blocker = connect_retry () in
      let burst_conns = List.init 6 (fun _ -> connect_retry ()) in
      Client.send blocker
        (J.Obj [ ("op", J.Str "query"); ("detector", J.Str "gn") ]);
      Unix.sleepf 0.05;
      List.iter
        (fun c ->
          Client.send c
            (J.Obj
               [
                 ("op", J.Str "query");
                 ("targets", J.Arr (List.map (fun l -> J.Str l) burst_targets));
                 ("detector", J.Str "greedy");
               ]))
        burst_conns;
      (match Client.recv blocker with
      | Ok _ -> ()
      | Error msg -> failwith ("blocker query failed: " ^ msg));
      let coalesced_replies =
        List.map
          (fun c ->
            match Client.recv c with
            | Ok r ->
                if J.member "status" r <> Some (J.Str "ok") then
                  failwith ("burst error reply: " ^ J.to_string r);
                J.member "coalesced" r = Some (J.Bool true)
            | Error msg -> failwith ("burst query failed: " ^ msg))
          burst_conns
      in
      let n_coalesced = List.length (List.filter Fun.id coalesced_replies) in
      Printf.printf "stampede: 6 connections, %d coalesced\n%!" n_coalesced;
      List.iter Client.close (blocker :: burst_conns);
      (* 7. concurrency: park a slow exact-GN refinement on the work
         queue, then hammer warm cached keys on a separate connection.
         With compute off the reactor the cached replies must not queue
         behind the slow job: their p99 stays under the cold p50. *)
      let slow_conn = connect_retry () in
      Client.send slow_conn
        (J.Obj
           [
             ("op", J.Str "query");
             ("detector", J.Str "gn");
             ("stop_size", J.num 1);
             ("max_iterations", J.num 50);
           ]);
      Unix.sleepf 0.02;
      let n_labels = List.length labels in
      let concurrent =
        List.init 100 (fun i ->
            let label = List.nth labels (i mod n_labels) in
            let r, t = one label in
            if
              Option.bind (J.member "cached" r) (function
                | J.Bool b -> Some b
                | _ -> None)
              <> Some true
            then failwith ("concurrent fast query not cached: " ^ label);
            t)
      in
      let slow_ms =
        match Client.recv slow_conn with
        | Ok r ->
            if J.member "status" r <> Some (J.Str "ok") then
              failwith ("slow query error reply: " ^ J.to_string r);
            (match J.member "elapsed_ms" r with
            | Some (J.Num f) -> f
            | _ -> failwith "slow reply missing elapsed_ms")
        | Error msg -> failwith ("slow query failed: " ^ msg)
      in
      Client.close slow_conn;
      let concurrent_p50 = percentile concurrent 0.5 in
      let concurrent_p99 = percentile concurrent 0.99 in
      Printf.printf
        "concurrency: %d cached queries beside a %.0f ms job   p50 %8.2f ms  p99 %8.2f ms (cold p50 %.2f ms)\n%!"
        (List.length concurrent) slow_ms concurrent_p50 concurrent_p99 cold_p50;
      (* 8. stats, graceful shutdown (persists the cache sidecar), join *)
      let stats =
        match Client.request conn (J.Obj [ ("op", J.Str "stats") ]) with
        | Ok r -> r
        | Error msg -> failwith ("stats failed: " ^ msg)
      in
      let errors = field_int stats "errors" in
      let cache_hits = field_int stats "cache_hits" in
      let served_total = field_int stats "served" in
      ignore (Client.request conn (J.Obj [ ("op", J.Str "shutdown") ]));
      Client.close conn;
      ignore (Unix.waitpid [] child);
      Printf.printf "daemon: served %d, errors %d, cache hits %d\n%!" served_total errors
        cache_hits;
      (* 9. restart: a fresh daemon over the same snapshot and sidecar
         must come up already warm — every key answered from the reloaded
         cache, payloads identical, p50 within 2x of the in-process warm
         pass — without recomputing anything. *)
      if not (Sys.file_exists cache_path) then
        failwith "graceful shutdown did not save the cache sidecar";
      if Sys.file_exists sock_path then Sys.remove sock_path;
      let child2 = fork_daemon () in
      let conn2 = connect_retry () in
      (match Client.request conn2 (J.Obj [ ("op", J.Str "ping") ]) with
      | Ok _ -> ()
      | Error msg -> failwith ("restart ping failed: " ^ msg));
      let query2 fields =
        Client.request conn2 (J.Obj (("op", J.Str "query") :: fields))
      in
      let restart =
        List.map
          (fun l ->
            let r, t =
              timeit (fun () ->
                  get_reply
                    (query2
                       [
                         ("targets", J.Arr [ J.Str l ]);
                         ("detector", J.Str "greedy");
                       ]))
            in
            if
              Option.bind (J.member "cached" r) (function
                | J.Bool b -> Some b
                | _ -> None)
              <> Some true
            then failwith ("restarted daemon answered cold: " ^ l);
            t)
          labels
      in
      let warm_restart_p50 = percentile restart 0.5 in
      let served_restart =
        get_reply (query2 [ ("detector", J.Str "gn"); ("gn_approx", J.num 128) ])
      in
      let restart_identity = payload_matches served_restart in
      let stats2 =
        match Client.request conn2 (J.Obj [ ("op", J.Str "stats") ]) with
        | Ok r -> r
        | Error msg -> failwith ("restart stats failed: " ^ msg)
      in
      let warm_entries = field_int stats2 "warm_entries" in
      let errors2 = field_int stats2 "errors" in
      ignore (Client.request conn2 (J.Obj [ ("op", J.Str "shutdown") ]));
      Client.close conn2;
      ignore (Unix.waitpid [] child2);
      Printf.printf
        "restart: %d entries warm-loaded   p50 %8.2f ms (in-process warm p50 %.2f ms)   identity %b\n%!"
        warm_entries warm_restart_p50 warm_p50 restart_identity;
      (* gates — the 2x restart bound gets a 1 ms absolute floor so a
         sub-0.1 ms warm p50 doesn't turn scheduler jitter into a
         failure *)
      let gates =
        [
          ("load_speedup_ge_50", speedup >= 50.0);
          ("warm_p50_lt_cold_p50", warm_p50 < cold_p50);
          ("zero_protocol_errors", errors = 0 && errors2 = 0);
          ("served_identical_to_single_shot", identity && restart_identity);
          ("stampede_coalesced", n_coalesced >= 1);
          (* Median cached latency under load stays below cold compute;
             the tail only has to beat half the slow job's runtime —
             on a single-core runner scheduler jitter alone can exceed
             cold p50, but a query that serialized behind the slow job
             would cost its full remaining runtime. *)
          ("concurrent_fast_p50_lt_cold_p50", concurrent_p50 < cold_p50);
          ( "concurrent_fast_p99_lt_half_slow",
            concurrent_p99 < Float.max (slow_ms /. 2.0) cold_p50 );
          ( "warm_restart_p50_le_2x_warm",
            warm_entries >= 1
            && warm_restart_p50 <= Float.max (2.0 *. warm_p50) 1.0 );
        ]
      in
      List.iter
        (fun (name, cond) ->
          Printf.printf "  gate %-36s %s\n%!" name (if cond then "PASS" else "FAIL"))
        gates;
      let path = Option.value ~default:"BENCH_serve.json" json in
      let oc = open_out path in
      Printf.fprintf oc
        "{\n\
        \  \"bench\": \"serve\",\n\
        \  \"scale\": \"small\",\n\
        \  \"experiment\": \"%s\",\n\
        \  \"build_ms\": %.3f,\n\
        \  \"save_ms\": %.3f,\n\
        \  \"load_ms\": %.3f,\n\
        \  \"load_speedup\": %.1f,\n\
        \  \"keys\": %d,\n\
        \  \"cold_p50_ms\": %.3f,\n\
        \  \"cold_p99_ms\": %.3f,\n\
        \  \"warm_p50_ms\": %.3f,\n\
        \  \"warm_p99_ms\": %.3f,\n\
        \  \"cold_qps\": %.1f,\n\
        \  \"warm_qps\": %.1f,\n\
        \  \"stampede_coalesced\": %d,\n\
        \  \"slow_job_ms\": %.3f,\n\
        \  \"concurrent_fast_p50_ms\": %.3f,\n\
        \  \"concurrent_fast_p99_ms\": %.3f,\n\
        \  \"warm_restart_p50_ms\": %.3f,\n\
        \  \"warm_entries\": %d,\n\
        \  \"cache_sidecar\": \"%s\",\n\
        \  \"served\": %d,\n\
        \  \"errors\": %d,\n\
        \  \"cache_hits\": %d,\n\
        \  \"identity\": %b,\n\
        \  \"restart_identity\": %b,\n\
        \  \"gates\": {\n%s\n  }\n}\n"
        (json_escape spec.Harness.name) t_build t_save t_load speedup
        (List.length labels) cold_p50 cold_p99 warm_p50 warm_p99 (qps cold) (qps warm)
        n_coalesced slow_ms concurrent_p50 concurrent_p99 warm_restart_p50
        warm_entries
        (json_escape cache_path) served_total errors cache_hits identity
        restart_identity
        (String.concat ",\n"
           (List.map
              (fun (name, cond) -> Printf.sprintf {|    "%s": %b|} (json_escape name) cond)
              gates));
      close_out oc;
      Printf.printf "  telemetry written to %s\n%!" path;
      (try
         Sys.remove snap_path;
         if Sys.file_exists sock_path then Sys.remove sock_path;
         Unix.rmdir dir
       with Sys_error _ | Unix.Unix_error _ -> ());
      if List.exists (fun (_, cond) -> not cond) gates then begin
        Printf.eprintf "serve bench: a gate failed\n";
        exit 1
      end)

(* --- driver ---------------------------------------------------------------------------- *)

let all_experiments =
  [
    ("wsubbug", Experiments.wsubbug);
    ("randmt", Experiments.rand_mt);
    ("goffgratch", Experiments.goffgratch);
    ("avx2", Experiments.avx2);
    ("avx2full", Experiments.avx2_full);
    ("randombug", Experiments.randombug);
    ("dyn3bug", Experiments.dyn3bug);
  ]

let run_target ~json ~trace ~domains ~partitioner = function
  | "ablation" -> run_ablation ()
  | "table1" -> run_table1 ()
  | "table2" -> run_table2 ()
  | "fig4" -> run_fig4 ()
  | "fig10" -> run_fig10 ()
  | "fig11" -> run_fig11 ()
  | "micro" -> microbenchmarks ()
  | "micro-par" -> run_micro_par ()
  | "gn" -> run_gn_bench ~trace ~json ~domains ()
  | "pipeline" -> run_pipeline_bench ~json ~trace ~domains ~partitioner ()
  | "refine" -> run_refine_bench ~json ~trace ~domains ~partitioner ()
  | "scaling" -> run_scaling_bench ~json ~domains ()
  | "lint" -> run_lint_bench ~json ()
  | "serve" -> run_serve_bench ~json ()
  | "campaign" -> run_campaign_bench ~json ~trace ~domains ~partitioner ()
  | name -> (
      match List.assoc_opt name all_experiments with
      | Some spec -> run_experiment spec
      | None ->
          Printf.eprintf "unknown target %S\n" name;
          exit 1)

(* Split "--json PATH" / "--trace PATH" / "--domains N" / "--detector NAME"
   flags out of the target list.  Detector names go through the shared
   Refine.partitioner_of_string helper — the same vocabulary as
   rca_main's --detector, by construction. *)
let parse_args args =
  let rec go targets json trace domains partitioner = function
    | [] -> (List.rev targets, json, trace, domains, partitioner)
    | "--json" :: path :: rest -> go targets (Some path) trace domains partitioner rest
    | "--trace" :: path :: rest -> go targets json (Some path) domains partitioner rest
    | "--domains" :: d :: rest -> (
        match int_of_string_opt d with
        | Some d when d >= 1 -> go targets json trace d partitioner rest
        | _ ->
            Printf.eprintf "--domains expects a positive integer, got %S\n" d;
            exit 1)
    | "--detector" :: name :: rest -> (
        match Rca_core.Refine.partitioner_of_string name with
        | Some p -> go targets json trace domains p rest
        | None ->
            Printf.eprintf "unknown detector %S (%s)\n" name Rca_core.Refine.partitioner_names;
            exit 1)
    | ("--json" | "--trace" | "--domains" | "--detector") :: [] ->
        Printf.eprintf "missing value for flag\n";
        exit 1
    | t :: rest -> go (t :: targets) json trace domains partitioner rest
  in
  go [] None None 4 Rca_core.Refine.Girvan_newman args

let () =
  let args = Array.to_list Sys.argv |> List.tl |> List.filter (fun a -> a <> "--") in
  let targets, json, trace, domains, partitioner = parse_args args in
  match targets with
  | [] ->
      Printf.printf "climate-rca reproduction harness (model scale: paper, %d modules)\n\n"
        (Rca_synth.Config.total_modules config);
      List.iter (fun (_, spec) -> run_experiment spec) all_experiments;
      run_table1 ();
      run_table2 ();
      run_fig4 ();
      run_fig10 ();
      run_fig11 ();
      run_ablation ();
      microbenchmarks ();
      run_micro_par ();
      run_gn_bench ~trace ~json ~domains ();
      run_pipeline_bench ~json:None ~trace:None ~domains ~partitioner ();
      run_refine_bench ~json:None ~trace:None ~domains ~partitioner ()
  | targets -> List.iter (run_target ~json ~trace ~domains ~partitioner) targets
