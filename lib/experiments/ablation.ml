(* Ablation study over the pipeline's design choices (DESIGN.md's
   per-experiment index calls these out):

   - community detection method (Girvan–Newman / modularity-greedy /
     none, i.e. sampling the whole slice);
   - node-importance measure (eigenvector in-centrality / PageRank /
     in-degree / Hashimoto non-backtracking);
   - samples per community (m).

   Each variant runs the refinement with simulated sampling on a fixed set
   of experiments and reports whether the bug was located, in how many
   iterations, and how many nodes were instrumented in total — the cost
   the paper's Section 5.2 argues community detection reduces. *)

open Rca_synth

type variant = {
  label : string;
  partitioner : Rca_core.Refine.partitioner option;  (* None = no split *)
  measure : Rca_core.Refine.centrality_measure;
  m_sample : int;
}

let default_variants =
  [
    {
      label = "paper: G-N + eigenvector in, m=10";
      partitioner = Some Rca_core.Refine.Girvan_newman;
      measure = Rca_core.Refine.Eigenvector_in;
      m_sample = 10;
    };
    {
      label = "no communities (whole slice), m=10";
      partitioner = None;
      measure = Rca_core.Refine.Eigenvector_in;
      m_sample = 10;
    };
    {
      label = "modularity-greedy + eigenvector in, m=10";
      partitioner = Some Rca_core.Refine.Modularity_greedy;
      measure = Rca_core.Refine.Eigenvector_in;
      m_sample = 10;
    };
    {
      label = "G-N + PageRank, m=10";
      partitioner = Some Rca_core.Refine.Girvan_newman;
      measure = Rca_core.Refine.Pagerank;
      m_sample = 10;
    };
    {
      label = "G-N + in-degree, m=10";
      partitioner = Some Rca_core.Refine.Girvan_newman;
      measure = Rca_core.Refine.In_degree;
      m_sample = 10;
    };
    {
      label = "G-N + non-backtracking, m=10";
      partitioner = Some Rca_core.Refine.Girvan_newman;
      measure = Rca_core.Refine.Non_backtracking_in;
      m_sample = 10;
    };
    {
      label = "G-N + eigenvector in, m=3";
      partitioner = Some Rca_core.Refine.Girvan_newman;
      measure = Rca_core.Refine.Eigenvector_in;
      m_sample = 3;
    };
  ]

type row = {
  variant : string;
  experiment : string;
  located : bool;
  iterations : int;
  instrumented : int;  (* distinct nodes sampled over all iterations *)
  final_size : int;
}

(* Refinement with an optional no-community mode: when [partitioner] is
   [None], the whole current subgraph is treated as one community (the
   paper's Section 6.2 discussion of why that is worse). *)
let refine_variant (v : variant) mg ~initial ~detect =
  match v.partitioner with
  | Some partitioner ->
      Rca_core.Refine.refine ~m_sample:v.m_sample ~measure:v.measure ~partitioner
        ~gn_approx:128 mg ~initial ~detect
  | None ->
      (* single-community refinement: sample the top-m of the whole slice *)
      let rec loop nodes budget iterations =
        let sampled = Rca_core.Refine.central_nodes mg ~m_sample:v.m_sample ~measure:v.measure nodes in
        let detected = detect sampled in
        let next =
          if detected = [] then begin
            let infl = Rca_core.Refine.ancestors_within mg nodes sampled in
            List.filter (fun n -> not (List.mem n infl)) nodes
          end
          else Rca_core.Refine.ancestors_within mg nodes detected
        in
        let iterations = (sampled, detected) :: iterations in
        if budget = 0 || next = [] || List.length next = List.length nodes then
          (nodes, List.rev iterations)
        else loop next (budget - 1) iterations
      in
      let final, iters = loop initial 10 [] in
      {
        Rca_core.Refine.iterations =
          List.map
            (fun (sampled, detected) ->
              {
                Rca_core.Refine.nodes = [];
                n_nodes = 0;
                n_edges = 0;
                communities = [];
                sampled_by_community = [ sampled ];
                sampled;
                detected;
              })
            iters;
        final_nodes = final;
        outcome = Rca_core.Refine.Exhausted;
      }

let run_variant (v : variant) (spec : Harness.spec) (fixture : Fixture.t) ~outputs : row =
  let mg = fixture.Fixture.mg in
  let bug_nodes = Fixture.bug_nodes fixture ~canonicals:spec.Harness.bug_canonicals in
  let detect = Rca_core.Detector.reachability mg ~bug_nodes in
  let keep_module =
    if spec.Harness.restrict_to_cam then Outputs.is_cam_module else fun _ -> true
  in
  let slice = Rca_core.Slice.of_outputs ~keep_module ~min_cluster:4 mg outputs in
  let result = refine_variant v mg ~initial:slice.Rca_core.Slice.nodes ~detect in
  let sampled_all =
    List.concat_map (fun it -> it.Rca_core.Refine.sampled) result.Rca_core.Refine.iterations
    |> List.sort_uniq compare
  in
  let located =
    List.exists
      (fun b ->
        List.mem b result.Rca_core.Refine.final_nodes
        || List.mem b
             (List.concat_map
                (fun it -> it.Rca_core.Refine.detected)
                result.Rca_core.Refine.iterations))
      bug_nodes
  in
  {
    variant = v.label;
    experiment = spec.Harness.name;
    located;
    iterations = List.length result.Rca_core.Refine.iterations;
    instrumented = List.length sampled_all;
    final_size = List.length result.Rca_core.Refine.final_nodes;
  }

(* The experiments used for the ablation (with their canonical affected
   outputs, so the comparison does not depend on selection noise). *)
let cases =
  [
    (Experiments.wsubbug, [ "wsub" ]);
    (Experiments.rand_mt, [ "flds"; "flns"; "fsds"; "sols" ]);
    (Experiments.goffgratch, [ "cloud"; "cldtot"; "aqsnow"; "freqs"; "ccn3" ]);
    (Experiments.randombug, [ "omega" ]);
    (Experiments.dyn3bug, [ "z3"; "uu"; "vv"; "omega"; "omegat" ]);
  ]

let run ?(variants = default_variants) (config : Config.t) : row list =
  List.concat_map
    (fun (spec, outputs) ->
      let fixture = Fixture.make ~inject:spec.Harness.inject config in
      List.map (fun v -> run_variant v spec fixture ~outputs) variants)
    cases

let pp ppf rows =
  Format.fprintf ppf "Ablation: refinement design choices@.";
  Format.fprintf ppf "%-44s %-12s %-8s %5s %6s %6s@." "variant" "experiment" "located"
    "iters" "nodes" "final";
  List.iter
    (fun r ->
      Format.fprintf ppf "%-44s %-12s %-8b %5d %6d %6d@." r.variant r.experiment r.located
        r.iterations r.instrumented r.final_size)
    rows;
  let by_variant = Hashtbl.create 8 in
  List.iter
    (fun r ->
      let ok, n = Option.value ~default:(0, 0) (Hashtbl.find_opt by_variant r.variant) in
      Hashtbl.replace by_variant r.variant ((ok + if r.located then 1 else 0), n + 1))
    rows;
  Format.fprintf ppf "@.located per variant:@.";
  List.iter
    (fun v ->
      match Hashtbl.find_opt by_variant v.label with
      | Some (ok, n) -> Format.fprintf ppf "  %-44s %d/%d@." v.label ok n
      | None -> ())
    default_variants
