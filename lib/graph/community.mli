(** Community detection (paper Section 5.2).

    Girvan–Newman operates on the undirected (symmetrized) view of the
    subgraph: repeatedly remove the highest-edge-betweenness edge until
    the component count increases — "one G-N iteration" in Algorithm 5.4
    step 5. *)

type partition = {
  labels : int array;  (** node -> community id (0 = largest) *)
  communities : int list list;  (** sorted by decreasing size *)
}

val partition_of_labels : int array -> int -> partition
val of_components : Digraph.t -> partition
(** Partition into weakly connected components. *)

val community_count : partition -> int

val modularity : Digraph.t -> partition -> float
(** Newman–Girvan modularity [Q] on a symmetrized digraph. *)

val edge_betweenness_sampled :
  ?approx:int -> ?pool:Pool.t -> Digraph.t -> (int * int, float) Hashtbl.t
(** Edge betweenness, exact or estimated from [approx] evenly spaced BFS
    sources (deterministic).  [pool] fans the per-source accumulation out
    across domains. *)

val max_betweenness_edge :
  ?approx:int -> ?pool:Pool.t -> Digraph.t -> (int * int * float) option
(** Highest-betweenness undirected edge of a symmetrized graph; near-ties
    (relative 1e-9) broken by edge order so sequential and parallel runs
    agree. *)

type gn_step = {
  partition : partition;
  removed_edges : (int * int) list;
}

val girvan_newman_step :
  ?approx:int ->
  ?pool:Pool.t ->
  ?max_removals:int ->
  Digraph.t ->
  gn_step
(** One Girvan–Newman iteration on a symmetrized copy: remove
    top-betweenness edges until the weak component count increases.
    [max_removals] bounds the work; [pool] parallelizes each betweenness
    recomputation without changing the partition.

    Runs on the component-incremental CSR engine: after removing edge
    [(u, v)] only the component containing [u] has its edge-betweenness
    recomputed (from exactly the fixed BFS sources inside it); untouched
    components keep their cached scores, and removals flip an arc-alive
    bit instead of rebuilding adjacency lists.  Removal sequences and
    partitions are identical to the reference engine — bitwise
    sequentially, within the {!Betweenness.beats} tie margin under a
    pool. *)

val girvan_newman :
  ?approx:int ->
  ?pool:Pool.t ->
  ?max_removals:int ->
  target:int ->
  Digraph.t ->
  gn_step
(** Iterate until at least [target] communities exist (or edges run
    out), on the same incremental engine; [removed_edges] lists the cut
    sequence in order. *)

val girvan_newman_step_reference :
  ?approx:int -> ?pool:Pool.t -> ?max_removals:int -> Digraph.t -> gn_step
(** {!girvan_newman_step} on the reference engine (mutable digraph +
    full betweenness recomputation per removal, O(n·m) each) — the
    differential-test oracle for the incremental engine. *)

val girvan_newman_reference :
  ?approx:int -> ?pool:Pool.t -> ?max_removals:int -> target:int -> Digraph.t -> gn_step
(** {!girvan_newman} on the reference engine. *)

val modularity_greedy : ?max_levels:int -> Digraph.t -> partition
(** Deterministic modularity-greedy agglomeration (Louvain-style local
    moves + contraction, plus a final Leiden-flavoured level-0 refinement
    sweep).  Its tie-breaking is explicit — ascending
    node order, equal gains keep the smaller community id — so the result
    is a pure function of the graph, independent of hashing or pool size.
    Modularity is monotone from the all-singleton start, so the returned
    partition's [Q] is never below the trivial partition's. *)

val modularity_greedy_masked :
  ?max_levels:int -> Csr.t -> Csr.t -> alive:Csr.mask -> int list list
(** {!modularity_greedy} run directly on a frozen CSR and its transpose
    restricted to the [alive] nodes — no induced subgraph is built.
    Neighbourhoods are the deduplicated union of out- and in-arcs between
    alive endpoints (the symmetrized weight-1 view).  Returns communities
    as lists of parent node ids, largest first. *)

val significant_communities : ?min_size:int -> partition -> int list list
(** Communities of at least [min_size] (default 3) nodes — Algorithm 5.4
    omits smaller ones. *)
