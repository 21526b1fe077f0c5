(* Algorithm 5.4: the iterative refinement procedure.

   Each iteration:
   5. run one Girvan–Newman step on the undirected view of the current
      subgraph and keep communities of at least [min_community] nodes;
   6. compute eigenvector in-centrality inside each community and pick the
      [m_sample] most central nodes;
   7. "instrument" them: ask the detector which take different values
      between ensemble and experimental runs;
   8a. nothing differs -> drop every node lying on a path terminating on a
       sampled node;
   8b. something differs -> keep exactly the nodes on paths terminating on
       the differing ones;
   9. repeat until the subgraph is small enough for manual analysis, a
      fixed point is reached, or the iteration budget runs out.

   The detector abstraction makes the same engine serve the paper's
   simulated sampling (graph reachability from known bug locations) and
   genuine runtime sampling.

   Two interchangeable engines drive the node-set bookkeeping.  The
   list-based reference rebuilds Digraph.induced_subgraph for every
   ancestor computation — at least three times per iteration — which is
   exactly the per-iteration graph-materialization cost the paper calls
   the bottleneck of iterative refinement.  The masked engine (default)
   freezes the metagraph once into a Frozen.t CSR and expresses the 8a/8b
   removals as node-alive bitmask flips plus masked reverse BFS; the
   community/centrality kernels receive their induced subgraphs
   materialized from the frozen rows in the list path's exact adjacency
   order, so iteration sequences, partitions and outcomes are bit
   identical between the engines (locked by differential tests and the
   `bench refine` oracle). *)

module MG = Rca_metagraph.Metagraph
module G = Rca_graph

type engine = [ `List | `Masked ]

type iteration = {
  nodes : int list;  (* subgraph at the start of the iteration *)
  n_nodes : int;
  n_edges : int;
  communities : int list list;  (* significant communities, metagraph ids *)
  sampled_by_community : int list list;  (* top-central ids per community *)
  sampled : int list;
  detected : int list;
}

type outcome =
  | Converged  (* subgraph at or below the manual-analysis size *)
  | Fixed_point  (* refinement stopped shrinking (paper Section 6.3) *)
  | Exhausted  (* iteration budget reached *)
  | Emptied  (* every node was excluded *)

type result = {
  iterations : iteration list;
  final_nodes : int list;
  outcome : outcome;
}

(* Ancestors of [targets] inside the node set [nodes] (paths confined to
   the current subgraph) — the list-based reference: one induced-subgraph
   rebuild per call. *)
let ancestors_within (mg : MG.t) nodes targets =
  let sub = G.Digraph.induced_subgraph mg.MG.graph nodes in
  let sub_targets = List.filter_map (G.Digraph.sub_of_parent sub) targets in
  G.Traverse.ancestors sub.G.Digraph.graph sub_targets
  |> List.map (G.Digraph.sub_to_parent sub)
  |> List.sort compare

(* Community method for step 5: the paper uses one Girvan-Newman
   iteration; deterministic modularity-greedy agglomeration is the fast
   alternative its Section 5.2/6.3 remarks invite.  Greedy is judged by
   the quality harness (Rca_graph.Quality) and the end-to-end
   located_bugs oracle, not by bitwise identity with G-N. *)
type partitioner = Girvan_newman | Modularity_greedy

let partitioners = [ Girvan_newman; Modularity_greedy ]

let partitioner_string = function
  | Girvan_newman -> "gn"
  | Modularity_greedy -> "greedy"

(* One detector vocabulary shared by every surface (bin/rca_main,
   bench/main, the serve daemon) so the names cannot drift. *)
let partitioner_names = String.concat "|" (List.map partitioner_string partitioners)

let partitioner_of_string s =
  List.find_opt (fun p -> partitioner_string p = s) partitioners

let induced_sub ?frozen (mg : MG.t) nodes =
  match frozen with
  | Some fz -> Frozen.induced_sub fz nodes
  | None -> G.Digraph.induced_subgraph mg.MG.graph nodes

let communities_of (mg : MG.t) ?gn_approx ?(min_community = 3)
    ?(partitioner = Girvan_newman) ?pool ?frozen nodes =
  match (partitioner, frozen) with
  | Modularity_greedy, Some fz ->
      (* The greedy engine runs directly on the frozen CSR restricted to
         the live nodes — the one partitioner that needs no induced
         subgraph at all. *)
      let alive = Frozen.mask_of_list fz nodes in
      G.Community.modularity_greedy_masked fz.Frozen.csr fz.Frozen.rev ~alive
      |> List.filter (fun comm -> List.length comm >= min_community)
  | _ ->
      let sub = induced_sub ?frozen mg nodes in
      let partition =
        match partitioner with
        | Girvan_newman ->
            (G.Community.girvan_newman_step ?approx:gn_approx ?pool sub.G.Digraph.graph)
              .G.Community.partition
        | Modularity_greedy -> G.Community.modularity_greedy sub.G.Digraph.graph
      in
      G.Community.significant_communities ~min_size:min_community partition
      |> List.map (fun comm -> List.map (G.Digraph.sub_to_parent sub) comm)

(* Node-importance measure for step 6.  The paper settles on eigenvector
   in-centrality; the alternatives support the ablation bench. *)
type centrality_measure = Eigenvector_in | Pagerank | In_degree | Non_backtracking_in

let centrality_scores ?pool measure g =
  match measure with
  | Eigenvector_in -> G.Centrality.eigenvector ~direction:G.Centrality.In ?pool g
  | Pagerank -> G.Centrality.pagerank g
  | In_degree -> G.Centrality.degree ~direction:G.Centrality.In g
  | Non_backtracking_in -> G.Centrality.non_backtracking ~direction:G.Centrality.In g

(* Top-m central nodes of one community (directed subgraph induced on the
   community's nodes).  Synthetic nodes (localized intrinsics, PRNG
   markers) cannot be instrumented at runtime and are skipped when picking
   sampling sites. *)
let central_nodes (mg : MG.t) ?(m_sample = 10) ?(measure = Eigenvector_in) ?pool ?frozen
    community =
  let sub = induced_sub ?frozen mg community in
  let cent = centrality_scores ?pool measure sub.G.Digraph.graph in
  G.Centrality.top_k cent (G.Digraph.n sub.G.Digraph.graph)
  |> List.filter_map (fun (id, _) ->
         let parent = G.Digraph.sub_to_parent sub id in
         if (MG.node mg parent).MG.synthetic then None else Some parent)
  |> List.filteri (fun i _ -> i < m_sample)

(* Centrality ranking with scores for reporting. *)
let centrality_ranking (mg : MG.t) community =
  let sub = G.Digraph.induced_subgraph mg.MG.graph community in
  let cent = G.Centrality.eigenvector ~direction:G.Centrality.In sub.G.Digraph.graph in
  G.Centrality.top_k cent (List.length community)
  |> List.map (fun (id, s) -> (G.Digraph.sub_to_parent sub id, s))

(* The narrowing fallback the paper proposes for non-refining iterations
   (Section 6.3): "rank the differences obtained by sampling and further
   refine the subgraph based on the nodes with the greatest differences.
   Alternatively ... choose one node and induce a subgraph based on paths
   terminating on it."  [by_magnitude] ranks by an observed difference
   magnitude; [smallest_ancestry] picks the detected node whose in-slice
   ancestor closure is smallest (the maximally refining choice when all
   nodes appear equally affected). *)
let by_magnitude magnitude detected =
  match detected with
  | [] -> None
  | _ ->
      Some
        (List.fold_left
           (fun best v -> if magnitude v > magnitude best then v else best)
           (List.hd detected) (List.tl detected))

let smallest_ancestry ?frozen (mg : MG.t) nodes detected =
  match detected with
  | [] -> None
  | _ ->
      (* one frozen CSR, one masked reverse BFS per candidate — the
         previous implementation rebuilt the induced subgraph once per
         candidate via [ancestors_within]. *)
      let fz = match frozen with Some f -> f | None -> Frozen.freeze mg.MG.graph in
      let alive = Frozen.mask_of_list fz (List.sort_uniq compare nodes) in
      let size v =
        let dist = Frozen.ancestor_dist fz ~alive [ v ] in
        let c = ref 0 in
        Array.iter (fun d -> if d <> G.Traverse.no_dist then incr c) dist;
        !c
      in
      Some
        (fst
           (List.fold_left
              (fun (bv, bs) v ->
                let s = size v in
                if s < bs then (v, s) else (bv, bs))
              (List.hd detected, size (List.hd detected))
              (List.tl detected)))

let outcome_string = function
  | Converged -> "converged"
  | Fixed_point -> "fixed-point"
  | Exhausted -> "exhausted"
  | Emptied -> "emptied"

let engine_string = function `List -> "list" | `Masked -> "masked"

let refine ?(m_sample = 10) ?(min_community = 3) ?(max_iterations = 10) ?(stop_size = 30)
    ?gn_approx ?partitioner ?measure ?choose_when_stuck ?(domains = 1) ?pool
    ?(engine = (`Masked : engine)) ?frozen (mg : MG.t) ~initial ~(detect : Detector.t) :
    result =
  (* One pool for the whole refinement: spawned once, reused by every
     Girvan–Newman betweenness recomputation and centrality sweep — or
     shared across many refinements when the caller passes [?pool] (the
     campaign runner does, one pool for the whole fault corpus).  A
     [domains] request is clamped to the machine's usable parallelism;
     an effective size of 1 keeps the sequential code paths
     byte-for-byte. *)
  let run_with pool =
  (* One frozen snapshot for the whole refinement (reused from the
     caller's when given): every 8a/8b ancestor sweep is a masked reverse
     BFS on it, and the per-iteration induced subgraphs handed to the
     community/centrality kernels are materialized from its rows. *)
  let fzo =
    match engine with
    | `List -> None
    | `Masked ->
        Some (match frozen with Some f -> f | None -> Frozen.freeze mg.MG.graph)
  in
  let iterations = ref [] in
  let finish outcome final_nodes =
    { iterations = List.rev !iterations; final_nodes; outcome }
  in
  (* [alive] mirrors [nodes] as a bitmask whenever the masked engine is
     active; it is rebuilt from the next node list at each transition. *)
  let rec loop iter_no nodes alive budget =
    (* [nodes] is sorted-unique with every id valid, so the induced
       subgraph's node count equals [List.length nodes].  The masked
       engine never materializes the subgraph here: the node count is
       the list length and the edge count a masked row scan. *)
    let n_nodes, n_edges =
      match fzo with
      | Some fz -> (List.length nodes, Frozen.alive_arcs fz alive)
      | None ->
          let sub = G.Digraph.induced_subgraph mg.MG.graph nodes in
          (G.Digraph.n sub.G.Digraph.graph, G.Digraph.m sub.G.Digraph.graph)
    in
    if n_nodes <= stop_size then finish Converged nodes
    else if budget = 0 then finish Exhausted nodes
    else begin
      let decision =
        Rca_obs.Obs.span' "refine.iteration"
          (fun d ->
            let common =
              [
                ("iteration", Rca_obs.Obs.Int iter_no);
                ("nodes", Rca_obs.Obs.Int n_nodes);
                ("edges", Rca_obs.Obs.Int n_edges);
                ("engine", Rca_obs.Obs.Str (engine_string engine));
              ]
            in
            match d with
            | `Stop (_, outcome) ->
                common @ [ ("outcome", Rca_obs.Obs.Str (outcome_string outcome)) ]
            | `Continue (_, next_count, it) ->
                common
                @ [
                    ("communities", Rca_obs.Obs.Int (List.length it.communities));
                    ("sampled", Rca_obs.Obs.Int (List.length it.sampled));
                    ("detected", Rca_obs.Obs.Int (List.length it.detected));
                    ("next_nodes", Rca_obs.Obs.Int next_count);
                  ])
        @@ fun () ->
        let communities =
          communities_of mg ?gn_approx ~min_community ?partitioner ?pool ?frozen:fzo
            nodes
        in
        if communities = [] then
          (* increasingly disconnected graph: no communities left to split
             (the paper's "bug not in any community" caveat) *)
          `Stop (nodes, Fixed_point)
        else begin
          let sampled_by_community =
            List.map (central_nodes mg ~m_sample ?measure ?pool ?frozen:fzo) communities
          in
          let sampled = List.sort_uniq compare (List.concat sampled_by_community) in
          let detected =
            Rca_obs.Obs.span "refine.detect" (fun () ->
                List.sort_uniq compare (detect sampled))
          in
          (* Ancestors of [targets] within the current node set: a masked
             reverse BFS on the frozen CSR, or the induced-subgraph
             reference.  Returns the surviving-node predicate as a
             distance array in the masked case so 8a's complement and
             8b's closure both come from one traversal. *)
          let masked_keep targets =
            match fzo with
            | Some fz ->
                let dist = Frozen.ancestor_dist fz ~alive targets in
                Some (fun v -> dist.(v) <> G.Traverse.no_dist)
            | None -> None
          in
          (* Each branch also yields |next| so the refinement checks run
             on counters instead of O(n) list walks per iteration. *)
          let next, n_next =
            if detected = [] then begin
              (* 8a: discard everything that can influence the sampled nodes *)
              let influenced =
                match masked_keep sampled with
                | Some in_closure -> in_closure
                | None ->
                    let infl = Hashtbl.create 256 in
                    List.iter
                      (fun v -> Hashtbl.replace infl v ())
                      (ancestors_within mg nodes sampled);
                    Hashtbl.mem infl
              in
              let kept = ref 0 in
              let next =
                List.filter
                  (fun v ->
                    let keep = not (influenced v) in
                    if keep then incr kept;
                    keep)
                  nodes
              in
              (next, !kept)
            end
            else begin
              (* 8b: keep exactly the detected nodes' ancestor closure *)
              match masked_keep detected with
              | Some in_closure ->
                  let kept = ref 0 in
                  let next =
                    List.filter
                      (fun v ->
                        let keep = in_closure v in
                        if keep then incr kept;
                        keep)
                      nodes
                  in
                  (next, !kept)
              | None ->
                  let anc = ancestors_within mg nodes detected in
                  (anc, List.length anc)
            end
          in
          iterations :=
            { nodes; n_nodes; n_edges; communities; sampled_by_community; sampled; detected }
            :: !iterations;
          let next, n_next =
            (* non-refining 8b step: fall back to the single-node narrowing
               strategy when one is given *)
            if detected <> [] && n_next = n_nodes then
              match choose_when_stuck with
              | Some choose -> (
                  match choose nodes detected with
                  | Some v -> (
                      match masked_keep [ v ] with
                      | Some in_closure ->
                          let kept = ref 0 in
                          let next =
                            List.filter
                              (fun w ->
                                let keep = in_closure w in
                                if keep then incr kept;
                                keep)
                              nodes
                          in
                          (next, !kept)
                      | None ->
                          let anc = ancestors_within mg nodes [ v ] in
                          (anc, List.length anc))
                  | None -> (next, n_next))
              | None -> (next, n_next)
            else (next, n_next)
          in
          if n_next = 0 then `Stop ([], Emptied)
          else if n_next = n_nodes then
            (* non-refining iteration: the induced subgraph equals the
               previous one (paper GOFFGRATCH second iteration) *)
            `Stop (nodes, Fixed_point)
          else `Continue (next, n_next, List.hd !iterations)
        end
      in
      match decision with
      | `Stop (final, outcome) -> finish outcome final
      | `Continue (next, _, _) ->
          let alive =
            match fzo with Some fz -> Frozen.mask_of_list fz next | None -> alive
          in
          loop (iter_no + 1) next alive (budget - 1)
    end
  in
  let initial = List.sort_uniq compare initial in
  let alive0 =
    match fzo with
    | Some fz -> Frozen.mask_of_list fz initial
    | None -> Bytes.empty
  in
  loop 1 initial alive0 max_iterations
  in
  Rca_obs.Obs.span' "refine.run"
    (fun r ->
      [
        ("domains", Rca_obs.Obs.Int domains);
        ("engine", Rca_obs.Obs.Str (engine_string engine));
        ("iterations", Rca_obs.Obs.Int (List.length r.iterations));
        ("final_nodes", Rca_obs.Obs.Int (List.length r.final_nodes));
        ("outcome", Rca_obs.Obs.Str (outcome_string r.outcome));
      ])
  @@ fun () ->
  match pool with
  | Some p -> run_with (if G.Pool.size p > 1 then Some p else None)
  | None ->
      let k = G.Pool.recommended_size ~requested:domains in
      if k > 1 then G.Pool.with_pool k (fun p -> run_with (Some p))
      else run_with None
