(* rca-paper: back-to-back single-shot RCAs of GOFFGRATCH at paper scale
   with [Harness.default_params], from generated sources to the
   candidate set — the paper's user path.  The interpreter (control and
   experimental ensembles, coverage probe, sampling validation) and
   Girvan–Newman refinement do most of the work. *)

open Rca_experiments
module J = Rca_serve.Jsonio

(* The paper's experiment as the repository runs it, whatever the seed:
   the RCA's cost is a function of its input, and a seeded model
   structure moves it too far for a regression bound (at structure seeds
   1-4 one RCA made 68, 101, 68 and 32 Girvan-Newman recomputations). *)
let spec = Experiments.goffgratch
let config _seed = Rca_synth.Config.paper
let params seed = Harness.default_params (config seed)

(* Stages.digest of the default-seed RCA. *)
let pinned = "a88e11d416395d93d60aafd782bbd414"

(* Why an RCA fails its checks ([] when it passes); [first] holds the
   digest every later RCA of the run must repeat. *)
let verify ~seed ~first (r : Stages.rca) =
  let d = Stages.digest r in
  let reasons =
    List.filter_map
      (fun (ok, why) -> if ok then None else Some why)
      [
        (r.Stages.verdict = Rca_ect.Ect.Fail, "ECT verdict is not Fail");
        (r.Stages.bugs_located, "the bug was not located");
        (Option.fold ~none:true ~some:(String.equal d) !first, "digest differs from the first RCA");
        (seed <> Seeds.default || d = pinned, "digest differs from the pinned default-seed digest");
      ]
  in
  if !first = None then first := Some d;
  Printf.sprintf "rca-paper seed %d digest %s: %s" seed d (String.concat "; " reasons), reasons = []

let untraced ~seed ~seconds : Outcome.t =
  let setups = List.init 15 (fun _ -> Proc.startup_s ()) in
  let p = params seed in
  let tally = Outcome.tally () and first = ref None and times = ref [] in
  let t_start = Proc.now_s () in
  (* at least two RCAs, so the run's median is not one sample *)
  while List.length !times < 2 || Proc.now_s () -. t_start < seconds do
    let t0 = Proc.now_s () in
    let r = Stages.of_report (Harness.run spec p) in
    times := (Proc.now_s () -. t0) :: !times;
    let what, ok = verify ~seed ~first r in
    Outcome.record tally ~what ok
  done;
  let elapsed = Proc.now_s () -. t_start in
  let times = List.rev !times in
  {
    Outcome.attempted = tally.Outcome.ops;
    failed = tally.Outcome.bad;
    checks = [];
    metrics =
      [
        ("setup_s", Summary.median setups);
        ("rca_ms_p50", 1e3 *. Summary.median times);
        ("throughput_per_s", float_of_int (List.length times) /. elapsed);
        ("peak_rss_mb", Proc.peak_rss_mb 0);
      ];
    info =
      [
        ("digest", Option.fold ~none:J.Null ~some:(fun d -> J.Str d) !first);
        ("rca_s", J.Arr (List.map (fun t -> J.Num t) times));
        ("rca_samples", J.num (List.length times));
        ("setup_samples", J.num (List.length setups));
        ("setup", J.Str "process start-up to the first benchmark line (median of 15 spawns)");
      ];
  }

let traced ~seed ~trace_path : Outcome.t =
  let p = params seed in
  let tally = Outcome.tally () and first = ref None in
  Rca_obs.Obs.disable ();
  let t0 = Proc.now_s () in
  let lib = Stages.of_report (Harness.run spec p) in
  let t_untraced = Proc.now_s () -. t0 in
  let what, ok = verify ~seed ~first lib in
  Outcome.record tally ~what ok;
  Rca_obs.Obs.enable ();
  Probe.reset ();
  let t1 = Proc.now_s () in
  let replay = Stages.rca spec p in
  let t_traced = Proc.now_s () -. t1 in
  Rca_obs.Obs.disable ();
  let what, ok = verify ~seed ~first replay in
  Outcome.record tally ~what ok;
  Probe.set "obs.overhead_pct" (100.0 *. (t_traced -. t_untraced) /. t_untraced);
  Rca_obs.Obs.write_chrome_trace trace_path;
  {
    Outcome.attempted = tally.Outcome.ops;
    failed = tally.Outcome.bad;
    checks =
      [
        Outcome.check "call-by-call replay reproduces Harness.run"
          (Stages.digest lib = Stages.digest replay);
      ];
    metrics = Layers.per_layer_metrics ();
    info =
      [
        ("digest", J.Str (Stages.digest replay));
        ("untraced_s", J.Num t_untraced);
        ("traced_s", J.Num t_traced);
        ("trace", J.Str trace_path);
      ];
  }
