(** Node centralities (paper Sections 5.2–5.3 and supplementary 8.1).

    The pipeline ranks nodes by eigenvector {e in}-centrality — looking
    for information sinks likely to be affected by upstream bug
    sources. *)

type direction = In | Out

val degree : ?direction:direction -> Digraph.t -> float array
(** Degree centrality, normalized by [n-1]. *)

val eigenvector :
  ?direction:direction ->
  ?max_iter:int ->
  ?tol:float ->
  ?pool:Pool.t ->
  Digraph.t ->
  float array
(** Eigenvector centrality by shifted power iteration (x <- x + Mx, the
    NetworkX convergence trick), L2-normalized.  [In] accumulates from
    predecessors (information sinks), [Out] from successors.  The matvec
    gathers over a frozen {!Csr} view whose row order reproduces the
    historical edge-scatter summation sequence, so results are bitwise
    identical to the adjacency-list implementation; [pool] chunks the
    rows across domains without changing any sum (sequential and
    parallel sweeps agree bitwise at every pool size). *)

val pagerank : ?d:float -> ?max_iter:int -> ?tol:float -> Digraph.t -> float array
(** PageRank with damping [d]; dangling mass redistributed uniformly.
    Sums to 1. *)

val non_backtracking :
  ?direction:direction -> ?max_iter:int -> ?tol:float -> Digraph.t -> float array
(** Hashimoto non-backtracking centrality (supplementary 8.1): power
    iteration on the edge non-backtracking operator, collapsed to nodes.
    Nodes with no incident edges in the relevant orientation get 0 — the
    sharp drop in the paper's Figure 11. *)

val rank : float array -> int array
(** Node ids by descending score; ties broken by id (reproducible). *)

val top_k : float array -> int -> (int * float) list
(** The [k] best (node, score) pairs. *)
