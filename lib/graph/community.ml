(* Community detection.

   The paper partitions each induced subgraph with the Girvan–Newman
   algorithm (Girvan & Newman 2002): repeatedly remove the edge of highest
   betweenness until the number of connected components increases; one such
   split is "one G-N iteration" (paper Algorithm 5.4 step 5).  G-N operates
   on the undirected (symmetrized) view of the subgraph.

   Exact G-N recomputes full edge betweenness after every removal, which is
   O(n·m) per removal.  We keep that as the reference implementation and
   additionally support source-sampled betweenness (`approx`) for the large
   paper-scale subgraphs, plus a deterministic modularity-greedy
   agglomeration as the fast alternative partitioner (an extension the
   paper's "numerous algorithms for graph partitioning" remark invites). *)

type partition = {
  labels : int array;  (* node -> community id, 0-based *)
  communities : int list list;  (* sorted by decreasing size *)
}

let partition_of_labels labels k =
  let buckets = Array.make k [] in
  for v = Array.length labels - 1 downto 0 do
    let c = labels.(v) in
    buckets.(c) <- v :: buckets.(c)
  done;
  let communities =
    Array.to_list buckets
    |> List.filter (fun c -> c <> [])
    |> List.sort (fun a b -> compare (List.length b) (List.length a))
  in
  (* Renumber labels to match the sorted community order. *)
  let labels' = Array.make (Array.length labels) (-1) in
  List.iteri (fun i comm -> List.iter (fun v -> labels'.(v) <- i) comm) communities;
  { labels = labels'; communities }

let of_components g =
  let labels, k = Components.weakly_connected_labels g in
  partition_of_labels labels k

let community_count p = List.length p.communities

(* Newman–Girvan modularity of a partition on an undirected (symmetrized)
   digraph: Q = sum_c (e_c/m - (d_c/2m)^2) with m undirected edges. *)
let modularity g p =
  let m2 = float_of_int (Digraph.m g) in
  (* symmetrized: m arcs = 2x undirected edges *)
  if m2 = 0.0 then 0.0
  else begin
    let k = community_count p in
    let internal = Array.make k 0.0 in
    let deg_sum = Array.make k 0.0 in
    Digraph.iter_edges
      (fun u v -> if p.labels.(u) = p.labels.(v) then internal.(p.labels.(u)) <- internal.(p.labels.(u)) +. 1.0)
      g;
    Digraph.iter_nodes
      (fun v -> deg_sum.(p.labels.(v)) <- deg_sum.(p.labels.(v)) +. float_of_int (Digraph.degree g v))
      g;
    let q = ref 0.0 in
    for c = 0 to k - 1 do
      q := !q +. (internal.(c) /. m2) -. ((deg_sum.(c) /. m2) ** 2.0)
    done;
    !q
  end

(* The fixed BFS source set Girvan–Newman betweenness uses.  When
   [approx] is [Some k] and the graph has more than k nodes, betweenness
   is estimated from k evenly spaced sources (deterministic, so results
   are reproducible).  G-N never deletes nodes, only edges, so this set
   is fixed for a whole run — the incremental engine relies on that to
   recompute a component from exactly the sampled sources it contains. *)
let gn_sources ?approx n =
  match approx with
  | Some k when n > k && k > 0 ->
      let step = float_of_int n /. float_of_int k in
      Array.init k (fun i -> int_of_float (float_of_int i *. step))
  | _ -> Array.init n (fun i -> i)

(* Edge betweenness with optional source sampling, on the hashtable
   reference path.  [pool] fans the per-source accumulation out across
   domains (see Betweenness). *)
let edge_betweenness_sampled ?approx ?pool g =
  (Betweenness.compute_sources ?pool g (gn_sources ?approx (Digraph.n g)))
    .Betweenness.edge_bc

let max_betweenness_edge ?approx ?pool g =
  let tbl = edge_betweenness_sampled ?approx ?pool g in
  (* On a symmetrized graph consider each undirected edge once (at its
     first directed occurrence), summing the two arc scores. *)
  Betweenness.argmax_edge (fun f ->
      Digraph.iter_edges
        (fun u v ->
          if u <= v || not (Digraph.mem_edge g v u) then
            f u v
              (Option.value ~default:0.0 (Hashtbl.find_opt tbl (u, v))
              +. Option.value ~default:0.0 (Hashtbl.find_opt tbl (v, u))))
        g)

type gn_step = {
  partition : partition;
  removed_edges : (int * int) list;  (* undirected pairs removed *)
}

(* --- the shared Girvan–Newman removal loop -------------------------------- *)

(* Both G-N entry points (one-split step, run-to-target) and both engines
   (component-incremental CSR, mutable-digraph reference) share this one
   loop; the engines differ only in how they answer the four queries. *)
type gn_driver = {
  ncomponents : unit -> int;
  alive_arcs : unit -> int;  (* directed arc count of the working graph *)
  best_edge : unit -> (int * int * float) option;
  remove : int -> int -> unit;  (* undirected removal of a [best_edge] result *)
  current : unit -> partition;
}

let gn_run driver ~max_removals ~stop =
  let removed = ref [] in
  let rec loop budget =
    if budget <= 0 then ()
    else if stop ~ncomps:(driver.ncomponents ()) ~arcs:(driver.alive_arcs ()) then ()
    else
      match driver.best_edge () with
      | None -> ()
      | Some (u, v, _) ->
          driver.remove u v;
          removed := (u, v) :: !removed;
          loop (budget - 1)
  in
  loop max_removals;
  { partition = driver.current (); removed_edges = List.rev !removed }

(* --- reference engine: mutable digraph + full recomputation ---------------- *)

(* Exact G-N as the paper states it: recompute full edge betweenness
   after every removal (O(n·m) each).  Kept as the differential-test
   reference for the incremental engine. *)
let reference_driver ?approx ?pool g =
  let work = Digraph.to_undirected g in
  {
    ncomponents = (fun () -> Components.count_weakly_connected work);
    alive_arcs = (fun () -> Digraph.m work);
    best_edge = (fun () -> max_betweenness_edge ?approx ?pool work);
    remove =
      (fun u v ->
        Digraph.remove_edge work u v;
        Digraph.remove_edge work v u);
    current = (fun () -> of_components work);
  }

(* --- component-incremental engine over a frozen CSR ------------------------ *)

(* Removing edge (u, v) can only change shortest paths inside the
   component containing u and v: BFS trees rooted in other components
   never reach the removed edge, so their betweenness contributions are
   untouched.  The engine therefore keeps one global arc-score array
   (valid per component) and, after each removal, re-runs Brandes only
   over the component of u — from exactly the fixed sources that lie in
   it — while every other component keeps its cached scores.  Late-stage
   G-N (many small components) drops from O(n·m) to O(n_c·m_c) per
   removal, plus an O(m) cached-score argmax scan.

   Determinism: per-component sequential recomputation adds exactly the
   same contributions in exactly the same order as a full sequential
   recomputation does for that component's arcs (sources ascend, CSR
   rows preserve adjacency order, other components contribute exactly
   nothing), so cached scores are bitwise identical to the reference's.
   The argmax deliberately re-scans all alive arcs in global arc order
   (Betweenness.argmax_edge) instead of combining per-component cached
   maxima: near-ties are resolved by scan order, and combining
   out-of-order partial maxima can pick a different edge of a near-tied
   pair.  Under a pool, per-component source chunking differs from the
   reference's global chunking, which perturbs sums by last-ulp noise —
   absorbed by the relative 1e-9 margin of [Betweenness.beats], exactly
   as for sequential-vs-parallel. *)
let incremental_driver ?approx ?pool g =
  let work = Digraph.to_undirected g in
  let csr = Csr.of_digraph work in
  let n = csr.Csr.n and m = csr.Csr.m in
  let row = csr.Csr.row and col = csr.Csr.col and src = csr.Csr.src in
  let alive = Bytes.make m '\001' in
  let arcs_alive = ref m in
  let edge_bc = Array.make m 0.0 in
  let sources = gn_sources ?approx n in
  let is_source = Array.make n false in
  Array.iter (fun s -> is_source.(s) <- true) sources;
  (* Component labels and member lists (members kept sorted ascending so
     recomputation sources ascend like the reference's). *)
  let comp = Array.make n (-1) in
  let members : (int, int array) Hashtbl.t = Hashtbl.create 16 in
  let ncomps = ref 0 in
  let next_comp = ref 0 in
  (* Generation-stamped BFS over alive arcs (the working graph is
     symmetric, so forward arcs suffice). *)
  let mark = Array.make n (-1) in
  let generation = ref 0 in
  let bfs start =
    incr generation;
    let gen = !generation in
    let q = Queue.create () in
    let seen = ref [] in
    mark.(start) <- gen;
    Queue.add start q;
    while not (Queue.is_empty q) do
      let u = Queue.pop q in
      seen := u :: !seen;
      for i = row.(u) to row.(u + 1) - 1 do
        if Bytes.unsafe_get alive i <> '\000' then begin
          let v = col.(i) in
          if mark.(v) <> gen then begin
            mark.(v) <- gen;
            Queue.add v q
          end
        end
      done
    done;
    let nodes = Array.of_list !seen in
    Array.sort compare nodes;
    (nodes, gen)
  in
  (* initial component labeling *)
  for v = 0 to n - 1 do
    if comp.(v) = -1 then begin
      let nodes, _ = bfs v in
      let c = !next_comp in
      incr next_comp;
      incr ncomps;
      Array.iter (fun x -> comp.(x) <- c) nodes;
      Hashtbl.replace members c nodes
    end
  done;
  (* Sequential per-component scratch, reused across removals; the
     reset-in-O(visited) contract keeps small components cheap. *)
  let scratch = Betweenness.make_csr_scratch csr in
  let scratch_node_bc = Array.make n 0.0 in
  let zero_component nodes =
    Array.iter
      (fun u ->
        for i = row.(u) to row.(u + 1) - 1 do
          edge_bc.(i) <- 0.0
        done)
      nodes
  in
  (* Exact accumulation for one component, ascending source order — the
     reference's float-summation sequence for that component's arcs. *)
  let accumulate_exact ~scratch ~node_bc srcs =
    Array.iter
      (fun s -> Betweenness.csr_accumulate_from csr ~alive scratch ~node_bc ~edge_bc s)
      srcs
  in
  (* Initial scores: one global computation over the fixed source set —
     the exact computation (and, under a pool, the exact chunk structure)
     the reference performs before its first removal. *)
  let initial =
    Rca_obs.Obs.span "gn.initial_scores" (fun () ->
        Betweenness.csr_compute_sources ?pool ~alive csr sources)
  in
  Array.blit initial.Betweenness.csr_edge_bc 0 edge_bc 0 m;
  let component_sources nodes =
    Array.to_list nodes |> List.filter (fun v -> is_source.(v)) |> Array.of_list
  in
  let recompute nodes =
    Rca_obs.Obs.span
      ~args:[ ("component_nodes", Rca_obs.Obs.Int (Array.length nodes)) ]
      "gn.recompute"
    @@ fun () ->
    zero_component nodes;
    let srcs = component_sources nodes in
    Rca_obs.Obs.incr "gn.components_rescored";
    Rca_obs.Obs.incr ~by:(Array.length srcs) "gn.sources_rescored";
    (* The pool pays a broadcast + barrier per batch, so hand it only
       components spanning at least two source chunks; a single-chunk
       batch accumulates its sources in order, which is the same float
       summation the sequential path performs, so this gate never
       changes a score — only who computes it. *)
    match pool with
    | Some p when Pool.size p > 1 && Array.length srcs > Betweenness.chunk_sources ->
        let acc = Betweenness.csr_compute_sources ~pool:p ~alive csr srcs in
        Array.iter
          (fun u ->
            for i = row.(u) to row.(u + 1) - 1 do
              edge_bc.(i) <- acc.Betweenness.csr_edge_bc.(i)
            done)
          nodes
    | _ -> accumulate_exact ~scratch ~node_bc:scratch_node_bc srcs
  in
  (* After a split both sides need rescoring.  Under a pool the engine
     parallelizes *across the two dirty components* (each side sequential
     with private scratch — their arc ranges are disjoint, and a
     per-component sequential accumulation is bitwise the sequential
     engine's, a stronger guarantee than source chunking gives) when both
     sides carry enough sources to amortize the batch barrier; otherwise
     the sides run back to back, each free to source-chunk on its own. *)
  let rescore_split side_a side_b =
    match pool with
    | Some p
      when Pool.size p > 1
           && Array.length (component_sources side_a) > Betweenness.chunk_sources
           && Array.length (component_sources side_b) > Betweenness.chunk_sources ->
        Rca_obs.Obs.span
          ~args:
            [
              ("side_a", Rca_obs.Obs.Int (Array.length side_a));
              ("side_b", Rca_obs.Obs.Int (Array.length side_b));
            ]
          "gn.recompute_split"
        @@ fun () ->
        ignore
          (Pool.run_chunks p ~chunks:2 (fun cidx ->
               let nodes = if cidx = 0 then side_a else side_b in
               let scratch = Betweenness.make_csr_scratch csr in
               let node_bc = Array.make n 0.0 in
               zero_component nodes;
               let srcs = component_sources nodes in
               Rca_obs.Obs.incr "gn.components_rescored";
               Rca_obs.Obs.incr ~by:(Array.length srcs) "gn.sources_rescored";
               accumulate_exact ~scratch ~node_bc srcs))
    | _ ->
        recompute side_a;
        recompute side_b
  in
  let best_edge () =
    Rca_obs.Obs.incr ~by:m "gn.argmax_arcs_scanned";
    Betweenness.argmax_edge (fun f ->
        for i = 0 to m - 1 do
          (* Alive arcs of the symmetric working graph come in pairs, so
             "first directed occurrence" is exactly [u <= v]; the score
             sums both arc directions like the reference. *)
          if Bytes.unsafe_get alive i <> '\000' then begin
            let u = src.(i) and v = col.(i) in
            if u <= v then f u v (edge_bc.(i) +. edge_bc.(csr.Csr.rev.(i)))
          end
        done)
  in
  let remove u v =
    let i = Csr.arc_id csr u v in
    if i >= 0 && Bytes.get alive i <> '\000' then begin
      let j = csr.Csr.rev.(i) in
      Bytes.set alive i '\000';
      decr arcs_alive;
      if j >= 0 && j <> i then begin
        Bytes.set alive j '\000';
        decr arcs_alive
      end;
      let c = comp.(u) in
      let reached_u, gen_u = bfs u in
      if u <> v && mark.(v) <> gen_u then begin
        (* the component split: [u]'s side keeps label [c], [v]'s side
           gets a fresh one; both need new scores *)
        let reached_v, _ = bfs v in
        let c' = !next_comp in
        incr next_comp;
        incr ncomps;
        Array.iter (fun x -> comp.(x) <- c') reached_v;
        Hashtbl.replace members c reached_u;
        Hashtbl.replace members c' reached_v;
        rescore_split reached_u reached_v
      end
      else
        (* still one component (or a self-loop): refresh its scores;
           every other component's cache is untouched.  A bare find here
           turned a bookkeeping bug into a process-killing Not_found;
           fail with the invariant spelled out instead. *)
        recompute
          (match Hashtbl.find_opt members c with
          | Some ms -> ms
          | None ->
              invalid_arg
                (Printf.sprintf
                   "Community.incremental remove: no member list for component %d \
                    (members table out of sync with comp labels)"
                   c))
    end
  in
  let current () =
    (* Relabel components in first-node order — the labeling
       [of_components] produces on the reference's working graph. *)
    let labels = Array.make n 0 in
    let remap = Hashtbl.create 16 in
    for v = 0 to n - 1 do
      labels.(v) <-
        (match Hashtbl.find_opt remap comp.(v) with
        | Some l -> l
        | None ->
            let l = Hashtbl.length remap in
            Hashtbl.replace remap comp.(v) l;
            l)
    done;
    partition_of_labels labels (Hashtbl.length remap)
  in
  {
    ncomponents = (fun () -> !ncomps);
    alive_arcs = (fun () -> !arcs_alive);
    best_edge;
    remove;
    current;
  }

(* --- entry points ----------------------------------------------------------- *)

(* One Girvan–Newman iteration on (the symmetrized view of) [g]: remove
   top-betweenness edges until the weak component count increases.
   [max_removals] bounds the work; if reached, the current partition is
   returned as-is. *)
let gn_step_with driver ?(max_removals = 2000) () =
  let initial = driver.ncomponents () in
  gn_run driver ~max_removals ~stop:(fun ~ncomps ~arcs:_ -> ncomps > initial)

(* Run G-N until at least [target] communities exist (or no edges
   remain).  Returns the state at the first point the target is met. *)
let gn_target_with driver ?(max_removals = 2000) ~target () =
  gn_run driver ~max_removals ~stop:(fun ~ncomps ~arcs -> ncomps >= target || arcs = 0)

(* Telemetry for one G-N entry: removals performed and resulting
   community count, tagged with the engine that ran. *)
let gn_span name engine f =
  Rca_obs.Obs.span' name
    (fun s ->
      [
        ("engine", Rca_obs.Obs.Str engine);
        ("removals", Rca_obs.Obs.Int (List.length s.removed_edges));
        ("communities", Rca_obs.Obs.Int (community_count s.partition));
      ])
    f

let girvan_newman_step ?approx ?pool ?max_removals g =
  gn_span "gn.step" "incremental" (fun () ->
      gn_step_with (incremental_driver ?approx ?pool g) ?max_removals ())

let girvan_newman ?approx ?pool ?max_removals ~target g =
  gn_span "gn.run" "incremental" (fun () ->
      gn_target_with (incremental_driver ?approx ?pool g) ?max_removals ~target ())

let girvan_newman_step_reference ?approx ?pool ?max_removals g =
  gn_span "gn.step" "reference" (fun () ->
      gn_step_with (reference_driver ?approx ?pool g) ?max_removals ())

let girvan_newman_reference ?approx ?pool ?max_removals ~target g =
  gn_span "gn.run" "reference" (fun () ->
      gn_target_with (reference_driver ?approx ?pool g) ?max_removals ~target ())

(* Communities of at least [min_size] nodes — Algorithm 5.4 step 5 omits
   communities smaller than 3 nodes. *)
let significant_communities ?(min_size = 3) p =
  List.filter (fun c -> List.length c >= min_size) p.communities

(* Renumber labels densely in first-appearance order: (labels, count). *)
let compact labels =
  let remap = Hashtbl.create 16 in
  Array.map
    (fun c ->
      match Hashtbl.find_opt remap c with
      | Some c' -> c'
      | None ->
          let c' = Hashtbl.length remap in
          Hashtbl.replace remap c c';
          c')
    labels
  |> fun l -> (l, Hashtbl.length remap)

(* --- modularity-greedy agglomeration on the masked CSR -------------------- *)

(* A deterministic Louvain/Leiden-style engine built for the masked
   refinement pipeline: level 0 runs directly over a frozen CSR plus a
   node-alive mask (no induced subgraph, no hashtables on the hot path),
   coarser levels over small explicit weighted graphs, and a final
   Leiden-flavoured local-move sweep back at level 0 lets individual
   nodes correct memberships the coarse levels locked in.

   Tie-breaking is explicit: nodes are visited in
   ascending id order, a node's candidate communities are compared by
   gain with an epsilon guard, equal gains keep the smaller community
   id, and a move happens only when the best candidate strictly beats
   staying put.  Moves therefore increase modularity monotonically —
   the final partition's Q can never drop below the trivial all-singleton
   partition it starts from — and the whole computation is a pure
   function of the graph: no RNG, no pool, no iteration-order hazards. *)

let greedy_eps = 1e-12

(* One greedy local-move phase over an abstract weighted graph:
   [iter_nbrs v f] presents each distinct neighbour [u <> v] once with
   its edge weight, in a fixed order; [deg] is the weighted degree
   (2*self + adjacent weight); [labels] seeds the assignment (identity
   for a fresh level, the flat labels for the final refinement sweep)
   and is updated in place.  Returns whether any move happened. *)
let greedy_local_phase ~n ~iter_nbrs ~deg ~m2 labels =
  let comm_tot = Array.make n 0.0 in
  Array.iteri (fun v c -> comm_tot.(c) <- comm_tot.(c) +. deg.(v)) labels;
  let neigh_w = Array.make n 0.0 in
  let neigh_stamp = Array.make n (-1) in
  let neigh_comms = Array.make n 0 in
  let gen = ref 0 in
  let moved = ref false in
  let improved = ref true in
  let sweeps = ref 0 in
  while !improved && !sweeps < 32 do
    improved := false;
    incr sweeps;
    for v = 0 to n - 1 do
      incr gen;
      let g = !gen in
      let nn = ref 0 in
      iter_nbrs v (fun u w ->
          let c = labels.(u) in
          if neigh_stamp.(c) <> g then begin
            neigh_stamp.(c) <- g;
            neigh_w.(c) <- w;
            neigh_comms.(!nn) <- c;
            incr nn
          end
          else neigh_w.(c) <- neigh_w.(c) +. w);
      let cv = labels.(v) in
      comm_tot.(cv) <- comm_tot.(cv) -. deg.(v);
      let w_cv = if neigh_stamp.(cv) = g then neigh_w.(cv) else 0.0 in
      let stay = w_cv -. (comm_tot.(cv) *. deg.(v) /. m2) in
      let best_c = ref (-1) in
      let best_gain = ref neg_infinity in
      for i = 0 to !nn - 1 do
        let c = neigh_comms.(i) in
        if c <> cv then begin
          let gain = neigh_w.(c) -. (comm_tot.(c) *. deg.(v) /. m2) in
          if
            gain > !best_gain +. greedy_eps
            || (c < !best_c && gain >= !best_gain -. greedy_eps)
          then begin
            best_c := c;
            best_gain := gain
          end
        end
      done;
      if !best_c >= 0 && !best_gain > stay +. greedy_eps then begin
        labels.(v) <- !best_c;
        comm_tot.(!best_c) <- comm_tot.(!best_c) +. deg.(v);
        moved := true;
        improved := true
      end
      else comm_tot.(cv) <- comm_tot.(cv) +. deg.(v)
    done
  done;
  !moved

(* Coarse levels: small explicit weighted graphs with sorted adjacency
   (the deterministic contraction of the level below). *)
type cgraph = {
  cn : int;
  cnbr : int array array;  (* distinct neighbour ids, ascending *)
  cwgt : float array array;
  cself : float array;
}

let greedy_contract ~n ~iter_nbrs ~self ~labels ~k =
  let members = Array.make k [] in
  for v = n - 1 downto 0 do
    members.(labels.(v)) <- v :: members.(labels.(v))
  done;
  let cself = Array.make k 0.0 in
  let nbr_w = Array.make k 0.0 in
  let nbr_stamp = Array.make k (-1) in
  let nbr_ids = Array.make k 0 in
  let cnbr = Array.make k [||] in
  let cwgt = Array.make k [||] in
  for c = 0 to k - 1 do
    let nn = ref 0 in
    List.iter
      (fun v ->
        cself.(c) <- cself.(c) +. self.(v);
        iter_nbrs v (fun u w ->
            let cu = labels.(u) in
            if cu = c then begin
              (* internal edge: both endpoints iterate it; count it once
                 (at the lower-id endpoint) as coarse self weight *)
              if v < u then cself.(c) <- cself.(c) +. w
            end
            else if nbr_stamp.(cu) <> c then begin
              nbr_stamp.(cu) <- c;
              nbr_w.(cu) <- w;
              nbr_ids.(!nn) <- cu;
              incr nn
            end
            else nbr_w.(cu) <- nbr_w.(cu) +. w))
      members.(c);
    let ids = Array.sub nbr_ids 0 !nn in
    Array.sort compare ids;
    cnbr.(c) <- ids;
    cwgt.(c) <- Array.map (fun u -> nbr_w.(u)) ids
  done;
  { cn = k; cnbr; cwgt; cself }

(* The masked-CSR entry: partition the subgraph induced on the alive
   nodes of [csr] (with [rev] its transpose, e.g. a [Frozen.t]'s two
   halves) and return the communities as lists of *parent* node ids,
   largest first.  Level 0 reads neighbourhoods as the deduplicated
   union of out- and in-arcs restricted to alive endpoints — exactly
   the symmetrized weight-1 view every other partitioner here uses —
   without materializing anything. *)
let modularity_greedy_masked ?(max_levels = 12) (csr : Csr.t) (rev : Csr.t) ~alive =
  let verts = Array.of_list (Csr.mask_to_list alive) in
  let na = Array.length verts in
  if na = 0 then []
  else begin
    Rca_obs.Obs.span' "greedy.partition"
      (fun comms ->
        [
          ("nodes", Rca_obs.Obs.Int na);
          ("communities", Rca_obs.Obs.Int (List.length comms));
        ])
    @@ fun () ->
    let dense = Array.make csr.Csr.n (-1) in
    Array.iteri (fun i v -> dense.(v) <- i) verts;
    let row = csr.Csr.row and col = csr.Csr.col in
    let rrow = rev.Csr.row and rcol = rev.Csr.col in
    let seen_stamp = Array.make na (-1) in
    let seen_gen = ref 0 in
    let iter_nbrs0 i f =
      incr seen_gen;
      let g = !seen_gen in
      let u = verts.(i) in
      let visit v =
        if v <> u && Csr.mask_mem alive v then begin
          let j = dense.(v) in
          if seen_stamp.(j) <> g then begin
            seen_stamp.(j) <- g;
            f j 1.0
          end
        end
      in
      for a = row.(u) to row.(u + 1) - 1 do
        visit col.(a)
      done;
      for a = rrow.(u) to rrow.(u + 1) - 1 do
        visit rcol.(a)
      done
    in
    let self0 = Array.make na 0.0 in
    let deg0 = Array.make na 0.0 in
    let half_edges = ref 0 in
    for i = 0 to na - 1 do
      let u = verts.(i) in
      for a = row.(u) to row.(u + 1) - 1 do
        if col.(a) = u then self0.(i) <- 1.0
      done;
      let nbrs = ref 0 in
      iter_nbrs0 i (fun _ _ -> incr nbrs);
      deg0.(i) <- (2.0 *. self0.(i)) +. float_of_int !nbrs;
      half_edges := !half_edges + !nbrs
    done;
    let total_w =
      Array.fold_left ( +. ) 0.0 self0 +. (float_of_int !half_edges /. 2.0)
    in
    if total_w = 0.0 then List.map (fun v -> [ v ]) (Array.to_list verts)
    else begin
      let m2 = 2.0 *. total_w in
      let flat = Array.init na (fun i -> i) in
      let labels0 = Array.init na (fun i -> i) in
      let moved0 = greedy_local_phase ~n:na ~iter_nbrs:iter_nbrs0 ~deg:deg0 ~m2 labels0 in
      let levels = ref 1 in
      if moved0 then begin
        let labels0, k0 = compact labels0 in
        Array.blit labels0 0 flat 0 na;
        let cg =
          ref (greedy_contract ~n:na ~iter_nbrs:iter_nbrs0 ~self:self0 ~labels:labels0 ~k:k0)
        in
        let continue_ = ref true in
        while !continue_ && !levels < max_levels do
          incr levels;
          let g = !cg in
          let iter_nbrs v f =
            let ids = g.cnbr.(v) and ws = g.cwgt.(v) in
            for x = 0 to Array.length ids - 1 do
              f ids.(x) ws.(x)
            done
          in
          let deg =
            Array.init g.cn (fun v ->
                (2.0 *. g.cself.(v)) +. Array.fold_left ( +. ) 0.0 g.cwgt.(v))
          in
          let labels = Array.init g.cn (fun i -> i) in
          let moved = greedy_local_phase ~n:g.cn ~iter_nbrs ~deg ~m2 labels in
          if not moved then continue_ := false
          else begin
            let labels, k = compact labels in
            for i = 0 to na - 1 do
              flat.(i) <- labels.(flat.(i))
            done;
            cg := greedy_contract ~n:g.cn ~iter_nbrs ~self:g.cself ~labels ~k
          end
        done
      end;
      (* Leiden-flavoured refinement: one more level-0 local-move phase
         seeded with the coarse assignment (still monotone in Q) *)
      ignore (greedy_local_phase ~n:na ~iter_nbrs:iter_nbrs0 ~deg:deg0 ~m2 flat);
      Rca_obs.Obs.incr ~by:!levels "greedy.levels";
      let flat, k = compact flat in
      let p = partition_of_labels flat k in
      List.map (List.map (fun i -> verts.(i))) p.communities
    end
  end

(* Digraph entry (tests, quality scoring, non-frozen callers): same
   engine over a fresh CSR of the graph with every node alive. *)
let modularity_greedy ?max_levels g =
  let csr = Csr.of_digraph g in
  let rev = Csr.transpose csr in
  let comms = modularity_greedy_masked ?max_levels csr rev ~alive:(Csr.full_mask csr) in
  let labels = Array.make (Digraph.n g) 0 in
  List.iteri (fun c comm -> List.iter (fun v -> labels.(v) <- c) comm) comms;
  partition_of_labels labels (List.length comms)
