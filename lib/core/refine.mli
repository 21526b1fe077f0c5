(** Algorithm 5.4: iterative refinement by community detection,
    eigenvector in-centrality and (simulated or real) runtime sampling —
    a k-ary search over the slice.

    The node-set bookkeeping freezes the metagraph once into a
    {!Frozen.t} CSR and expresses the 8a/8b removals as node-alive
    bitmask flips plus masked reverse BFS.  Its differential oracle, the
    list-based engine in test/oracle, rebuilds
    [Digraph.induced_subgraph] for every ancestor computation; iteration
    sequences, partitions, final node sets and outcomes are bit
    identical between the two. *)

module MG := Rca_metagraph.Metagraph

type engine = Slice.engine
(** See {!Slice.engine}: [?engine] on {!refine} selects nothing. *)

type iteration = {
  nodes : int list;  (** subgraph at the start of the iteration *)
  n_nodes : int;
  n_edges : int;
  communities : int list list;  (** significant communities (>= min size) *)
  sampled_by_community : int list list;  (** top-central ids per community *)
  sampled : int list;
  detected : int list;
}

type outcome =
  | Converged  (** at or below the manual-analysis size *)
  | Fixed_point  (** refinement stopped shrinking (paper Section 6.3) *)
  | Exhausted  (** iteration budget reached *)
  | Emptied  (** every node was excluded *)

type result = {
  iterations : iteration list;
  final_nodes : int list;
  outcome : outcome;
}

type partitioner =
  | Girvan_newman  (** exact incremental G-N — the paper's detector *)
  | Modularity_greedy
      (** deterministic modularity-greedy agglomeration
          ({!Rca_graph.Community.modularity_greedy}); given a frozen
          snapshot it runs directly on the CSR with no induced subgraph *)

val partitioners : partitioner list
(** Every detector, in CLI order. *)

val partitioner_string : partitioner -> string
(** CLI name: gn | greedy. *)

val partitioner_names : string
(** The CLI names joined with ['|'] — the one list every [--detector]
    doc and unknown-detector error quotes. *)

val partitioner_of_string : string -> partitioner option
(** Inverse of {!partitioner_string}; [None] for any other name.  The
    single parser behind every [--detector] flag and the daemon's
    ["detector"] field. *)

val communities_of :
  MG.t ->
  ?gn_approx:int ->
  ?min_community:int ->
  ?partitioner:partitioner ->
  ?pool:Rca_graph.Pool.t ->
  ?frozen:Frozen.t ->
  int list ->
  int list list
(** Step 5's community split on the induced subgraph: one Girvan–Newman
    iteration by default, or one of the alternative partitioners.  [pool]
    parallelizes the Girvan–Newman betweenness recomputations; [frozen]
    materializes the induced subgraph from the frozen CSR rows instead of
    the adjacency lists (identical result). *)

type centrality_measure = Eigenvector_in | Pagerank | In_degree | Non_backtracking_in

val centrality_scores :
  ?pool:Rca_graph.Pool.t -> centrality_measure -> Rca_graph.Digraph.t -> float array

val central_nodes :
  MG.t ->
  ?m_sample:int ->
  ?measure:centrality_measure ->
  ?pool:Rca_graph.Pool.t ->
  ?frozen:Frozen.t ->
  int list ->
  int list
(** The top-m central, runtime-instrumentable nodes of one community
    (step 6); eigenvector in-centrality by default. *)

val centrality_ranking : MG.t -> int list -> (int * float) list
(** Full in-centrality ranking of a community, for reporting (the paper's
    AVX2 REPL listing). *)

val by_magnitude : (int -> float) -> int list -> int option
(** Chooser for [choose_when_stuck]: the detected node with the greatest
    observed difference magnitude (the paper's proposed ranking). *)

val smallest_ancestry : ?frozen:Frozen.t -> MG.t -> int list -> int list -> int option
(** Chooser: the detected node with the smallest in-slice ancestor
    closure — the maximally refining pick when all sampled nodes appear
    equally affected (the paper's alternative proposal).  One frozen CSR
    and one masked reverse BFS per candidate; pass [frozen] to reuse an
    existing snapshot. *)

val refine :
  ?m_sample:int ->
  ?min_community:int ->
  ?max_iterations:int ->
  ?stop_size:int ->
  ?gn_approx:int ->
  ?partitioner:partitioner ->
  ?measure:centrality_measure ->
  ?choose_when_stuck:(int list -> int list -> int option) ->
  ?domains:int ->
  ?pool:Rca_graph.Pool.t ->
  ?engine:engine ->
  ?frozen:Frozen.t ->
  MG.t ->
  initial:int list ->
  detect:Detector.t ->
  result
(** Run Algorithm 5.4 from the [initial] node set: split (5), rank (6),
    sample (7), shrink by 8a (nothing detected: drop the sampled nodes'
    ancestor closure) or 8b (keep the detected nodes' ancestors), repeat
    (9).  [domains] (default 1) sizes a domain pool — spawned once for
    the whole refinement, clamped via {!Rca_graph.Pool.recommended_size}
    to the machine's usable parallelism — that parallelizes the
    community-detection and centrality hot paths; an effective size of 1
    keeps the sequential code paths byte-for-byte and any value produces
    the same final node set.  [pool] supplies an existing pool instead
    (overrides [domains]; not shut down here) so many refinements can
    share one set of worker domains.  [frozen] reuses the caller's
    snapshot of [mg]'s graph (one per {!Pipeline.run}) instead of
    freezing again. *)

val outcome_string : outcome -> string
