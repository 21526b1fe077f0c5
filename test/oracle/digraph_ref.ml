(* Adjacency-list forms of the traversal and component kernels that lib/
   runs on a frozen CSR under a node-alive mask
   ([Traverse.ancestors_csr], [Components.weakly_connected_components_csr]).
   The list engine slices and refines with these on induced subgraphs, and
   the differential tests compare the masked kernels against them. *)

module G = Rca_graph

(* Distances *to* a set of targets: BFS along predecessor edges. *)
let bfs_dist_rev g targets =
  let n = G.Digraph.n g in
  let dist = Array.make n G.Traverse.no_dist in
  let q = Queue.create () in
  List.iter
    (fun s ->
      if s < 0 || s >= n then invalid_arg "Digraph_ref.bfs_dist_rev: bad target";
      if dist.(s) = G.Traverse.no_dist then begin
        dist.(s) <- 0;
        Queue.add s q
      end)
    targets;
  while not (Queue.is_empty q) do
    let u = Queue.pop q in
    List.iter
      (fun v ->
        if dist.(v) = G.Traverse.no_dist then begin
          dist.(v) <- dist.(u) + 1;
          Queue.add v q
        end)
      (G.Digraph.pred g u)
  done;
  dist

(* Ancestors of the targets, targets included, ascending: the node set of
   the union of all shortest directed paths terminating on a target. *)
let ancestors g targets =
  let dist = bfs_dist_rev g targets in
  List.filter (fun v -> dist.(v) <> G.Traverse.no_dist) (List.init (Array.length dist) Fun.id)

(* Weak components in label order (ascending smallest member), each
   ascending. *)
let weakly_connected_components g =
  let label, k = G.Components.weakly_connected_labels g in
  let comps = Array.make k [] in
  for v = G.Digraph.n g - 1 downto 0 do
    comps.(label.(v)) <- v :: comps.(label.(v))
  done;
  Array.to_list comps
