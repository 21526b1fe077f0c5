(* The list-based node-set engine: the differential oracle for the
   masked-CSR engine in lib/core.

   Every node-set computation here materializes what it works on —
   breadth-first searches over [Digraph.pred] and an induced subgraph per
   ancestor closure (at least three rebuilds per refinement iteration).
   The masked engine does the same work as node-alive mask flips over one frozen
   CSR; slices, every refinement iteration, final node sets and outcomes
   must agree bitwise.  Community detection and centrality are shared
   with lib/core ([Refine.communities_of] and [Refine.central_nodes]
   without a frozen snapshot), so the comparison isolates the
   bookkeeping. *)

module MG = Rca_metagraph.Metagraph
module G = Rca_graph
module Slice = Rca_core.Slice
module Refine = Rca_core.Refine
module Pipeline = Rca_core.Pipeline

(* --- pruned copies ------------------------------------------------------------ *)

(* A copy of the metagraph without the edges incident to [dead] nodes.
   Surviving successor lists keep their order: [add_edge] prepends, so
   the edges are added in reverse iteration order.  A copy that reversed
   them would reorder Brandes' float sums and can change a Girvan–Newman
   split of the copy. *)
let without_nodes (mg : MG.t) ~(dead : int list) : MG.t =
  let is_dead = Hashtbl.create (List.length dead * 2 + 1) in
  List.iter (fun id -> Hashtbl.replace is_dead id ()) dead;
  let g = mg.MG.graph in
  let g' = G.Digraph.create ~size_hint:(G.Digraph.n g) () in
  if G.Digraph.n g > 0 then G.Digraph.ensure_node g' (G.Digraph.n g - 1);
  let origins' = Hashtbl.create (Hashtbl.length mg.MG.edge_origins) in
  let kept = ref [] in
  G.Digraph.iter_edges
    (fun u v -> if not (Hashtbl.mem is_dead u || Hashtbl.mem is_dead v) then kept := (u, v) :: !kept)
    g;
  List.iter
    (fun (u, v) ->
      G.Digraph.add_edge g' u v;
      Hashtbl.replace origins' (u, v) (MG.edge_origins mg u v))
    !kept;
  { mg with MG.graph = g'; edge_origins = origins' }

(* --- slicing ----------------------------------------------------------------- *)

(* Backward closure of [targets] through nodes satisfying [keep],
   ascending. *)
let restricted_ancestors (mg : MG.t) ~keep targets =
  let g = mg.MG.graph in
  let n = G.Digraph.n g in
  let mark = Array.make n false in
  let q = Queue.create () in
  let visit v =
    if keep.(v) && not mark.(v) then begin
      mark.(v) <- true;
      Queue.add v q
    end
  in
  List.iter visit targets;
  while not (Queue.is_empty q) do
    List.iter visit (G.Digraph.pred g (Queue.pop q))
  done;
  List.filter (fun v -> mark.(v)) (List.init n Fun.id)

(* Drop weakly connected clusters of fewer than [min_cluster] nodes,
   computed on the induced subgraph. *)
let drop_small_clusters (mg : MG.t) nodes ~min_cluster =
  if min_cluster <= 1 then nodes
  else begin
    let sub = G.Digraph.induced_subgraph mg.MG.graph nodes in
    Digraph_ref.weakly_connected_components sub.G.Digraph.graph
    |> List.concat_map (fun comp ->
           if List.length comp >= min_cluster then
             List.map (G.Digraph.sub_to_parent sub) comp
           else [])
    |> List.sort compare
  end

let slice_of_internals ?(keep_module = fun _ -> true) ?(min_cluster = 1) ?(exclude = [])
    (mg : MG.t) internals : Slice.t =
  Rca_obs.Obs.span "slice.of_internals" @@ fun () ->
  let targets = Slice.target_nodes mg internals in
  let n = G.Digraph.n mg.MG.graph in
  let keep = Array.init n (fun id -> keep_module (MG.node mg id).MG.module_) in
  List.iter (fun id -> if id >= 0 && id < n then keep.(id) <- false) exclude;
  let nodes =
    drop_small_clusters mg (restricted_ancestors mg ~keep targets) ~min_cluster
  in
  let node_set = Hashtbl.create (2 * List.length nodes + 1) in
  List.iter (fun v -> Hashtbl.replace node_set v ()) nodes;
  { Slice.mg; nodes; targets = List.filter (Hashtbl.mem node_set) targets; node_set }

let slice_of_outputs ?keep_module ?min_cluster ?exclude (mg : MG.t) outputs =
  slice_of_internals ?keep_module ?min_cluster ?exclude mg
    (Slice.internal_names_of_outputs mg outputs)

(* --- refinement -------------------------------------------------------------- *)

(* Ancestors of [targets] with paths confined to [nodes]: one
   induced-subgraph rebuild per call. *)
let ancestors_within (mg : MG.t) nodes targets =
  let sub = G.Digraph.induced_subgraph mg.MG.graph nodes in
  let sub_targets = List.filter_map (G.Digraph.sub_of_parent sub) targets in
  Digraph_ref.ancestors sub.G.Digraph.graph sub_targets
  |> List.map (G.Digraph.sub_to_parent sub)
  |> List.sort compare

(* Algorithm 5.4 with the same parameters and defaults as
   [Refine.refine]. *)
let refine ?(m_sample = 10) ?(min_community = 3) ?(max_iterations = 10) ?(stop_size = 30)
    ?gn_approx ?partitioner ?measure ?choose_when_stuck ?(domains = 1) ?pool (mg : MG.t)
    ~initial ~(detect : Rca_core.Detector.t) : Refine.result =
  let run_with pool =
    let iterations = ref [] in
    let finish outcome final_nodes =
      { Refine.iterations = List.rev !iterations; final_nodes; outcome }
    in
    let step nodes n_nodes n_edges =
      let communities =
        Refine.communities_of mg ?gn_approx ~min_community ?partitioner ?pool nodes
      in
      if communities = [] then `Stop (nodes, Refine.Fixed_point)
      else begin
        let sampled_by_community =
          List.map (Refine.central_nodes mg ~m_sample ?measure ?pool) communities
        in
        let sampled = List.sort_uniq compare (List.concat sampled_by_community) in
        let detected = List.sort_uniq compare (detect sampled) in
        let next =
          if detected = [] then begin
            (* 8a: drop everything that can influence the sampled nodes *)
            let infl = Hashtbl.create 256 in
            List.iter (fun v -> Hashtbl.replace infl v ()) (ancestors_within mg nodes sampled);
            List.filter (fun v -> not (Hashtbl.mem infl v)) nodes
          end
          else (* 8b: keep the detected nodes' ancestor closure *)
            ancestors_within mg nodes detected
        in
        iterations :=
          { Refine.nodes; n_nodes; n_edges; communities; sampled_by_community; sampled; detected }
          :: !iterations;
        let next =
          match choose_when_stuck with
          | Some choose when detected <> [] && List.length next = n_nodes -> (
              match choose nodes detected with
              | Some v -> ancestors_within mg nodes [ v ]
              | None -> next)
          | _ -> next
        in
        let n_next = List.length next in
        if n_next = 0 then `Stop ([], Refine.Emptied)
        else if n_next = n_nodes then `Stop (nodes, Refine.Fixed_point)
        else `Continue next
      end
    in
    let rec loop nodes budget =
      let sub = G.Digraph.induced_subgraph mg.MG.graph nodes in
      let n_nodes = G.Digraph.n sub.G.Digraph.graph in
      let n_edges = G.Digraph.m sub.G.Digraph.graph in
      if n_nodes <= stop_size then finish Refine.Converged nodes
      else if budget = 0 then finish Refine.Exhausted nodes
      else
        match
          Rca_obs.Obs.span "refine.iteration" (fun () -> step nodes n_nodes n_edges)
        with
        | `Stop (final, outcome) -> finish outcome final
        | `Continue next -> loop next (budget - 1)
    in
    loop (List.sort_uniq compare initial) max_iterations
  in
  match pool with
  | Some p -> run_with (if G.Pool.size p > 1 then Some p else None)
  | None ->
      let k = G.Pool.recommended_size ~requested:domains in
      if k > 1 then G.Pool.with_pool k (fun p -> run_with (Some p)) else run_with None

(* --- end to end -------------------------------------------------------------- *)

(* [Pipeline.run] with the same parameters and defaults. *)
let pipeline_run ?keep_module ?(min_cluster = 4) ?m_sample ?min_community ?max_iterations
    ?stop_size ?gn_approx ?partitioner ?choose_when_stuck ?domains ?pool (mg : MG.t) ~outputs
    ~detect : Pipeline.t =
  let slice = slice_of_outputs ?keep_module ~min_cluster mg outputs in
  let result =
    refine ?m_sample ?min_community ?max_iterations ?stop_size ?gn_approx ?partitioner
      ?choose_when_stuck ?domains ?pool mg ~initial:slice.Slice.nodes ~detect
  in
  { Pipeline.slice; result }
