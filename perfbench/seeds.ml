(* The workload seed orders the fault campaign and draws the serve
   request stream.  It changes no workload's composition: models keep
   their canonical structure seeds, the campaign its canonical corpus,
   the daemon its key catalogue.  Composition moves cost further than a
   regression bound can absorb: at structure seeds 1-4 one paper-scale
   RCA made 32 to 101 Girvan-Newman recomputations, and over corpus seeds
   1-5 a campaign pass varied by 21% (with precision under the 0.05 floor
   at three of them).  Seed 0 is the default: it keeps the repository's
   own campaign order (seed 24301), so the digests pinned for it compare
   against the repository's own runs. *)

let default = 0

let derive ~base seed =
  if seed = default then base
  else
    Int64.to_int
      (Rca_rng.Splitmix.mix64
         (Int64.add (Int64.of_int base) (Int64.mul 0x9E3779B97F4A7C15L (Int64.of_int seed))))
    land 0x3FFF_FFFF

let campaign_order seed = derive ~base:0x5eed seed
let serve_draws seed = derive ~base:0x64726177 seed
