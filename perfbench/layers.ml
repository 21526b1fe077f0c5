(* The metric registry and the per-layer metrics of a traced run.

   End-to-end metrics are the same four on every workload, because each
   workload's operation is an RCA: a single-shot RCA from sources
   (rca-paper), one fault's detect/select/slice/refine (campaign-tiny),
   one query answered from a compiled snapshot (serve-small).

   Per-layer metrics are named after the library that does the work.  A
   traced run reports every one of them; a layer the workload never
   calls reads 0.  Times are totals over the traced unit (one RCA; a
   campaign set-up and pass; a serve set-up and 800-request phase)
   unless the name says otherwise
   ([*_run_ms] are means per run, [*_p50]/[*_p90] percentiles).  They
   come from three sources: {!Probe} (calls the benchmark timed), the
   Obs spans and counters of this process, and the Obs summary a traced
   daemon writes on shutdown ({!import_summary}). *)

module J = Rca_serve.Jsonio

let end_to_end =
  [ ("setup_s", "s"); ("rca_ms_p50", "ms"); ("throughput_per_s", "1/s"); ("peak_rss_mb", "MiB") ]

let per_layer =
  [
    ("interp.run_ms", "ms");
    ("interp.runs", "count");
    ("interp.steps_per_run", "count");
    ("interp.steps_per_s", "1/s");
    ("interp.hooked_run_ms", "ms");
    ("graph.gn_ms", "ms");
    ("graph.gn_recomputes", "count");
    ("graph.greedy_ms", "ms");
    ("graph.centrality_ms", "ms");
    ("core.freeze_ms", "ms");
    ("core.slice_ms", "ms");
    ("core.slice_nodes", "count");
    ("core.refine_ms", "ms");
    ("core.refine_iterations", "count");
    ("core.final_nodes", "count");
    ("fortran.parse_ms", "ms");
    ("fortran.code_lines", "count");
    ("synth.generate_ms", "ms");
    ("coverage.probe_ms", "ms");
    ("metagraph.build_ms", "ms");
    ("metagraph.nodes", "count");
    ("metagraph.edges", "count");
    ("experiments.fixture_ms", "ms");
    ("experiments.validation_ms", "ms");
    ("ect.fit_ms", "ms");
    ("stats.lasso_ms", "ms");
    ("stats.median_distance_ms", "ms");
    ("faults.corpus_ms", "ms");
    ("faults.fault_ms_p50", "ms");
    ("faults.baseline_ms", "ms");
    ("faults.source_faults", "count");
    ("serve.snapshot_save_ms", "ms");
    ("serve.snapshot_load_ms", "ms");
    ("serve.snapshot_bytes", "bytes");
    ("serve.compute_ms", "ms");
    ("serve.cache_hit_ratio", "ratio");
    ("serve.coalesced", "count");
    ("serve.inline_runs", "count");
    ("serve.reply_bytes", "bytes");
    ("serve.json_decode_ms", "ms");
    ("serve.json_encode_ms", "ms");
    ("serve.cold_ms_p50", "ms");
    ("serve.cold_ms_p90", "ms");
    ("serve.warm_ms_p50", "ms");
    ("serve.warm_ms_p90", "ms");
    ("obs.overhead_pct", "%");
  ]

(* Span totals and counters imported from a traced daemon. *)
let imported_spans : (string, float) Hashtbl.t = Hashtbl.create 16
let imported_counters : (string, float) Hashtbl.t = Hashtbl.create 16

let import_summary (v : J.t) =
  let num = function Some (J.Num f) -> f | _ -> 0.0 in
  (match J.member "spans" v with
  | Some (J.Obj spans) ->
      List.iter
        (fun (name, s) ->
          Hashtbl.replace imported_spans name (num (J.member "total_ms" s)))
        spans
  | _ -> ());
  match J.member "counters" v with
  | Some (J.Obj cs) ->
      List.iter (fun (name, c) -> Hashtbl.replace imported_counters name (num (Some c))) cs
  | _ -> ()

let span_ms name =
  Rca_obs.Obs.span_total_ms name
  +. Option.value ~default:0.0 (Hashtbl.find_opt imported_spans name)

let counter name =
  float_of_int (Rca_obs.Obs.counter_value name)
  +. Option.value ~default:0.0 (Hashtbl.find_opt imported_counters name)

(* The benchmark's own timing of a call when it made one, else the
   library's span for the same work (inside the daemon). *)
let probe_or_span probe span =
  if Probe.calls probe > 0 then Probe.total_ms probe else span_ms span

let ratio a b = if b > 0.0 then a /. b else 0.0

let value name =
  match name with
  | "interp.run_ms" -> Probe.mean_ms "interp.run"
  | "interp.runs" -> float_of_int (Probe.calls "interp.run")
  | "interp.steps_per_run" ->
      ratio (Probe.value "interp.steps") (float_of_int (Probe.calls "interp.run"))
  | "interp.steps_per_s" ->
      ratio (Probe.value "interp.steps") (Probe.total_ms "interp.run" /. 1e3)
  | "interp.hooked_run_ms" -> Probe.mean_ms "interp.hooked_run"
  | "graph.gn_ms" -> span_ms "gn.step"
  | "graph.gn_recomputes" -> counter "gn.components_rescored"
  | "graph.greedy_ms" -> span_ms "greedy.partition"
  | "graph.centrality_ms" -> span_ms "centrality.eigenvector"
  | "core.freeze_ms" -> probe_or_span "core.freeze" "frozen.freeze"
  | "core.slice_ms" -> probe_or_span "core.slice" "slice.of_internals"
  | "core.refine_ms" -> probe_or_span "core.refine" "refine.run"
  | "fortran.parse_ms" -> Probe.total_ms "fortran.parse"
  | "synth.generate_ms" -> Probe.total_ms "synth.generate"
  | "coverage.probe_ms" -> Probe.total_ms "coverage.probe"
  | "metagraph.build_ms" -> Probe.total_ms "metagraph.build"
  | "experiments.fixture_ms" -> Probe.total_ms "experiments.fixture"
  | "experiments.validation_ms" -> Probe.total_ms "experiments.validation"
  | "ect.fit_ms" -> Probe.total_ms "ect.fit"
  | "stats.lasso_ms" -> Probe.total_ms "stats.lasso"
  | "stats.median_distance_ms" -> Probe.total_ms "stats.median_distance"
  | "faults.corpus_ms" -> Probe.total_ms "faults.corpus"
  | "faults.baseline_ms" -> span_ms "campaign.baseline"
  | "serve.snapshot_save_ms" -> Probe.total_ms "serve.snapshot_save"
  | "serve.snapshot_load_ms" -> Probe.total_ms "serve.snapshot_load"
  | other -> Probe.value other

let per_layer_metrics () = List.map (fun (name, _) -> (name, value name)) per_layer
