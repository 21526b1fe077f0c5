(* Scale configuration for the synthetic CAM-like model.

   The generator emits a fixed "core" (dynamics, microphysics, saturation,
   clouds, radiation, surface, land) plus configurable families of filler
   modules that give the digraph its CESM-like bulk: executed physics and
   dynamics parameterizations, executed utilities, compiled-but-unexecuted
   modules, and source-tree modules never built into the executable. *)

type t = {
  ncol : int;  (* horizontal columns (Lorenz-96 ring length) *)
  pver : int;  (* vertical levels *)
  nsteps : int;  (* time steps per run; the ECT samples the last one *)
  n_extra_physics : int;  (* executed filler physics parameterizations *)
  n_extra_dynamics : int;  (* executed filler dynamics modules *)
  n_utility : int;  (* executed utility modules used by the fillers *)
  n_unused : int;  (* built but never executed (coverage removes them) *)
  n_unbuilt : int;  (* in the source tree but outside the build closure *)
  vars_per_filler : int;  (* assignment-chain length per filler module *)
  seed : int;  (* structure seed for the filler generator *)
}

(* Unit-test scale: parses and runs in milliseconds. *)
let tiny =
  {
    ncol = 8;
    pver = 3;
    nsteps = 4;
    n_extra_physics = 3;
    n_extra_dynamics = 2;
    n_utility = 2;
    n_unused = 2;
    n_unbuilt = 2;
    vars_per_filler = 8;
    seed = 1234;
  }

(* Integration-test / example scale. *)
let small =
  {
    ncol = 16;
    pver = 4;
    nsteps = 9;
    n_extra_physics = 12;
    n_extra_dynamics = 6;
    n_utility = 6;
    n_unused = 10;
    n_unbuilt = 12;
    vars_per_filler = 18;
    seed = 20190211;
  }

(* Bench scale: hundreds of modules, slices in the thousands of nodes. *)
let paper =
  {
    ncol = 24;
    pver = 6;
    nsteps = 9;
    n_extra_physics = 60;
    n_extra_dynamics = 24;
    n_utility = 20;
    n_unused = 70;
    n_unbuilt = 90;
    vars_per_filler = 34;
    seed = 13432;
  }

(* Scaling-wall scale: ≥10x the paper metagraph (filler module counts
   10x across every family, same per-module chain length), for detector
   scaling measurements.  Exact incremental Girvan–Newman is already
   infeasible here — which is the point: only the sampled/greedy
   detectors make this size partitionable per query. *)
let huge =
  {
    ncol = 24;
    pver = 6;
    nsteps = 9;
    n_extra_physics = 600;
    n_extra_dynamics = 240;
    n_utility = 200;
    n_unused = 700;
    n_unbuilt = 900;
    vars_per_filler = 34;
    seed = 961748927;
  }

let total_modules c =
  (* 19 core modules + the driver + the filler families *)
  20 + c.n_extra_physics + c.n_extra_dynamics + c.n_utility + c.n_unused + c.n_unbuilt
