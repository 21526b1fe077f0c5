(* Reference Girvan–Newman as the paper states it: a mutable undirected
   copy of the graph, and a full edge-betweenness recomputation
   (hashtable Brandes, [Brandes_ref]) after every removal — O(n·m) each.
   The differential oracle for the component-incremental CSR engine in
   lib/graph/community.ml: both must cut the same edges in the same order
   and return the same partition. *)

open Rca_graph

(* The fixed BFS source set: every node, or [approx] evenly spaced ones
   when the graph is larger than that (the incremental engine's rule). *)
let gn_sources ?approx n =
  match approx with
  | Some k when n > k && k > 0 ->
      let step = float_of_int n /. float_of_int k in
      Array.init k (fun i -> int_of_float (float_of_int i *. step))
  | _ -> Array.init n (fun i -> i)

(* Edge betweenness, exact or estimated from [approx] sources. *)
let edge_betweenness_sampled ?approx ?pool g =
  (Brandes_ref.compute_sources ?pool g (gn_sources ?approx (Digraph.n g)))
    .Brandes_ref.edge_bc

(* Highest-betweenness undirected edge of a symmetrized graph: each
   undirected edge is considered once, at its first directed occurrence,
   with the two arc scores summed. *)
let max_betweenness_edge ?approx ?pool g =
  let tbl = edge_betweenness_sampled ?approx ?pool g in
  let score u v = Option.value ~default:0.0 (Hashtbl.find_opt tbl (u, v)) in
  Betweenness.argmax_edge (fun f ->
      Digraph.iter_edges
        (fun u v ->
          if u <= v || not (Digraph.mem_edge g v u) then f u v (score u v +. score v u))
        g)

(* Remove top-betweenness edges from the undirected copy until [stop]
   holds, the budget runs out or no edge is left. *)
let run ?approx ?pool ?(max_removals = 2000) ~stop g =
  let work = Digraph.to_undirected g in
  let initial = Components.count_weakly_connected work in
  let removed = ref [] in
  let rec loop budget =
    if
      budget > 0
      && not
           (stop ~initial
              ~ncomps:(Components.count_weakly_connected work)
              ~arcs:(Digraph.m work))
    then
      match max_betweenness_edge ?approx ?pool work with
      | None -> ()
      | Some (u, v, _) ->
          Digraph.remove_edge work u v;
          Digraph.remove_edge work v u;
          removed := (u, v) :: !removed;
          loop (budget - 1)
  in
  loop max_removals;
  {
    Community.partition = Community.of_components work;
    removed_edges = List.rev !removed;
  }

(* One split: until the component count increases. *)
let girvan_newman_step ?approx ?pool ?max_removals g =
  run ?approx ?pool ?max_removals g ~stop:(fun ~initial ~ncomps ~arcs:_ -> ncomps > initial)

(* Until at least [target] communities exist or no edge is left. *)
let girvan_newman ?approx ?pool ?max_removals ~target g =
  run ?approx ?pool ?max_removals g ~stop:(fun ~initial:_ ~ncomps ~arcs ->
      ncomps >= target || arcs = 0)
