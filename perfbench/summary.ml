(* Latency summaries for the benchmark's samples.

   Quantiles interpolate linearly between order statistics, exactly as
   {!Rca_stats.Descriptive.quantile} does.  A tail percentile is only
   reported when at least [min_tail] samples lie above its base order
   statistic: with fewer, "p90" would really be the maximum of a handful
   of samples and would swing from run to run.  Every summary carries its
   sample count so a reader can tell how much a percentile rests on. *)

let min_tail = 10

(* Samples strictly above the order statistic that quantile [q] of a
   sample of [n] interpolates from. *)
let beyond ~n q =
  if n <= 0 then 0 else n - 1 - int_of_float (Float.floor (q *. float_of_int (n - 1)))

let reportable ~n q = beyond ~n q >= min_tail

type t = {
  count : int;
  p50 : float;  (** nan when [count = 0] *)
  p90 : float option;  (** [None] unless {!reportable} *)
}

let of_samples xs =
  let a = Array.of_list xs in
  let n = Array.length a in
  if n = 0 then { count = 0; p50 = Float.nan; p90 = None }
  else
    {
      count = n;
      p50 = Rca_stats.Descriptive.median a;
      p90 = (if reportable ~n 0.9 then Some (Rca_stats.Descriptive.quantile a 0.9) else None);
    }

(* Median of a non-empty sample; the per-run figure for quantities a run
   measures a few times (set-up, whole RCAs). *)
let median xs = Rca_stats.Descriptive.median (Array.of_list xs)
