(* Experiment runner: ECT verdict, variable selection, slicing, iterative
   refinement with simulated sampling, and the runtime-sampling
   cross-check, reported in one record per experiment. *)

open Rca_synth
module MG = Rca_metagraph.Metagraph

type spec = {
  name : string;
  description : string;
  inject : Model.sources -> Model.sources;
  opts : Model.run_opts -> Model.run_opts;  (* experimental configuration *)
  bug_canonicals : (string option * string) list;  (* (module filter, canonical) *)
  restrict_to_cam : bool;
  selection_target : int;  (* lasso support size to tune for *)
}

(* Which detector drives Algorithm 5.4's sampling step: the paper's
   simulated sampling (graph reachability from the known bug locations),
   or genuine runtime sampling — the part the paper leaves as "currently
   performed in simulation" and this implementation can actually run. *)
type detector_kind = Simulated | Runtime

type params = {
  config : Config.t;
  ensemble_members : int;
  experimental_members : int;
  m_sample : int;
  gn_approx : int option;
  stop_size : int;
  detector : detector_kind;
  partitioner : Rca_core.Refine.partitioner;  (* step-5 community detector *)
  domains : int;  (* domain-pool size for the refinement hot paths *)
  static_prune : bool;
      (* run the static analyzer over the covered program and attach its
         report; the analysis observes and never changes the RCA *)
}

let default_params config =
  {
    config;
    ensemble_members = 20;
    experimental_members = 8;
    m_sample = 10;
    gn_approx = Some 128;
    stop_size = 30;
    detector = Simulated;
    partitioner = Rca_core.Refine.Girvan_newman;
    domains = 1;
    static_prune = false;
  }

type report = {
  spec : spec;
  ect_verdict : Rca_ect.Ect.verdict;
  median_selected : Rca_stats.Select.ranked_variable list;
  lasso_selected : Rca_stats.Select.ranked_variable list;
  affected_outputs : string list;  (* the selection driving the slice *)
  slice_nodes : int;
  slice_edges : int;
  bug_node_names : string list;
  pipeline : Rca_core.Pipeline.t;
  bugs_located : bool;
  sampling_agreement : float option;  (* simulated vs runtime detector *)
  analysis : Rca_analysis.Analysis.t option;  (* when static_prune was on *)
  fixture : Fixture.t;
}

let iteration_count r = List.length r.pipeline.Rca_core.Pipeline.result.Rca_core.Refine.iterations

(* The affected-variable choice, shared with the fault campaign.  The
   paper recommends the direct/median comparison first: when it "clearly
   indicates" a variable (WSUBBUG's wsub scored >1000x the runner-up),
   use the dominant group; otherwise fall back to the lasso, capped at
   the tuning target ("about five variables"). *)
let choose_affected ~median_selected ~lasso_selected ~selection_target =
  match median_selected with
  | [ only ] -> [ only.Rca_stats.Select.name ]
  | top :: _ :: _
    when List.length
           (List.filter
              (fun v -> v.Rca_stats.Select.score > top.Rca_stats.Select.score /. 1000.0)
              median_selected)
         <= 2
         && (List.nth median_selected 1).Rca_stats.Select.score
            < top.Rca_stats.Select.score /. 1000.0 ->
      List.filter_map
        (fun v ->
          if v.Rca_stats.Select.score > top.Rca_stats.Select.score /. 1000.0 then
            Some v.Rca_stats.Select.name
          else None)
        median_selected
  | _ ->
      let lasso_names =
        Rca_stats.Select.names_of (Rca_stats.Select.take selection_target lasso_selected)
      in
      if lasso_names <> [] then lasso_names
      else Rca_stats.Select.names_of (Rca_stats.Select.take selection_target median_selected)

(* Steps 1-2 of the workflow (discrepancy detection + variable
   selection), shared between [run] and [rca_main compile]: a snapshot
   compiled for the query server must bake in exactly the affected
   outputs a single-shot run would slice on. *)
type selection = {
  sel_ect_verdict : Rca_ect.Ect.verdict;
  sel_median : Rca_stats.Select.ranked_variable list;
  sel_lasso : Rca_stats.Select.ranked_variable list;
  sel_affected : string list;
}

let select_affected (spec : spec) (p : params) (fixture : Fixture.t) : selection =
  (* 1. detect the discrepancy *)
  let ensemble = Fixture.control_ensemble fixture ~members:p.ensemble_members in
  let ect = Rca_ect.Ect.fit ~var_names:Model.output_names ensemble in
  let experimental =
    Fixture.experimental_runs fixture ~members:p.experimental_members ~opts:spec.opts
  in
  let ect_verdict =
    (Rca_ect.Ect.evaluate ect (Array.sub experimental 0 (min 3 (Array.length experimental))))
      .Rca_ect.Ect.verdict
  in
  (* 2. variable selection *)
  let names = Model.output_names in
  let median_selected =
    Rca_stats.Select.median_distance ~names ~ensemble ~experimental
  in
  let lasso_selected =
    Rca_stats.Select.lasso ~target:spec.selection_target ~names ~ensemble ~experimental ()
  in
  let affected_outputs =
    choose_affected ~median_selected ~lasso_selected
      ~selection_target:spec.selection_target
  in
  {
    sel_ect_verdict = ect_verdict;
    sel_median = median_selected;
    sel_lasso = lasso_selected;
    sel_affected = affected_outputs;
  }

let run ?(validate_sampling = true) (spec : spec) (p : params) : report =
  let fixture = Fixture.make ~inject:spec.inject p.config in
  let sel = select_affected spec p fixture in
  let ect_verdict = sel.sel_ect_verdict in
  let median_selected = sel.sel_median in
  let lasso_selected = sel.sel_lasso in
  let affected_outputs = sel.sel_affected in
  (* 3. slice + refine with simulated sampling *)
  let bug_nodes = Fixture.bug_nodes fixture ~canonicals:spec.bug_canonicals in
  let keep_module =
    if spec.restrict_to_cam then Outputs.is_cam_module else fun _ -> true
  in
  let simulated = Rca_core.Detector.reachability fixture.Fixture.mg ~bug_nodes in
  let detect =
    match p.detector with
    | Simulated -> simulated
    | Runtime -> fun sampled -> Sampling.detector ~fixture ~opts:spec.opts sampled
  in
  let analysis =
    if p.static_prune then Some (Rca_analysis.Analysis.analyze fixture.Fixture.covered_program)
    else None
  in
  let pipeline =
    Rca_core.Pipeline.run ~keep_module ~min_cluster:4 ~m_sample:p.m_sample
      ?gn_approx:(Option.map (fun x -> x) p.gn_approx)
      ~stop_size:p.stop_size ~partitioner:p.partitioner ~domains:p.domains
      fixture.Fixture.mg ~outputs:affected_outputs ~detect
  in
  let sub = Rca_core.Slice.subgraph pipeline.Rca_core.Pipeline.slice in
  (* 4. success criterion: a bug node was sampled, detected, or survives
     in the final candidate set *)
  let sampled_everywhere =
    List.concat_map
      (fun it -> it.Rca_core.Refine.sampled)
      pipeline.Rca_core.Pipeline.result.Rca_core.Refine.iterations
  in
  let final = pipeline.Rca_core.Pipeline.result.Rca_core.Refine.final_nodes in
  let bugs_located =
    List.exists (fun b -> List.mem b final || List.mem b sampled_everywhere) bug_nodes
  in
  (* 5. validate the simulated detector against genuine runtime sampling
     on the first iteration's instrumented nodes *)
  let sampling_agreement =
    if not validate_sampling then None
    else
      match pipeline.Rca_core.Pipeline.result.Rca_core.Refine.iterations with
      | [] -> None
      | it :: _ ->
          let runtime =
            match p.detector with
            | Runtime -> detect
            | Simulated -> fun sampled -> Sampling.detector ~fixture ~opts:spec.opts sampled
          in
          Some (Sampling.agreement simulated runtime it.Rca_core.Refine.sampled)
  in
  {
    spec;
    ect_verdict;
    median_selected;
    lasso_selected;
    affected_outputs;
    slice_nodes = Rca_graph.Digraph.n sub.Rca_graph.Digraph.graph;
    slice_edges = Rca_graph.Digraph.m sub.Rca_graph.Digraph.graph;
    bug_node_names = Rca_core.Pipeline.describe_nodes fixture.Fixture.mg bug_nodes;
    pipeline;
    bugs_located;
    sampling_agreement;
    analysis;
    fixture;
  }

let pp ppf (r : report) =
  Format.fprintf ppf "=== %s: %s@." r.spec.name r.spec.description;
  Format.fprintf ppf "UF-ECT verdict: %s@." (Rca_ect.Ect.verdict_string r.ect_verdict);
  Format.fprintf ppf "median-distance selection: %s@."
    (String.concat ", "
       (List.map
          (fun v -> Printf.sprintf "%s (%.2f)" v.Rca_stats.Select.name v.Rca_stats.Select.score)
          (Rca_stats.Select.take 8 r.median_selected)));
  Format.fprintf ppf "lasso selection: %s@."
    (String.concat ", " (Rca_stats.Select.names_of r.lasso_selected));
  Format.fprintf ppf "slice: %d nodes, %d edges (bug nodes: %s)@." r.slice_nodes
    r.slice_edges
    (String.concat ", " r.bug_node_names);
  Rca_core.Pipeline.pp ppf (r.fixture.Fixture.mg, r.pipeline);
  Format.fprintf ppf "bugs located: %b" r.bugs_located;
  (match r.sampling_agreement with
  | Some a -> Format.fprintf ppf "; simulated/runtime sampling agreement: %.0f%%" (100.0 *. a)
  | None -> ());
  Format.fprintf ppf "@."
