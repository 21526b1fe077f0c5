(* campaign-tiny: the tiny-scale fault campaign, one [Campaign.run_fault]
   per fault, whole passes over the corpus.  Many small programs: every
   source fault rebuilds its fixture (parse, coverage probe, metagraph),
   interpreter runs are short so machine set-up weighs more, and the
   graph-free baseline runs the hooked interpreter. *)

open Rca_faults
open Rca_experiments
module J = Rca_serve.Jsonio

let config _seed = Rca_synth.Config.tiny

let params seed = Campaign.default_params (config seed)

(* The corpus in the seed's order: as mined for seed 0, shuffled
   otherwise.  Faults are independent: order changes no fault's result. *)
let ordered seed (corpus : Corpus.t) =
  if seed = Seeds.default then corpus.Corpus.faults
  else begin
    let a = Array.of_list corpus.Corpus.faults in
    Rca_rng.Prng.shuffle (Rca_rng.Splitmix.create (Seeds.campaign_order seed)) a;
    Array.to_list a
  end

(* MD5 of the default-seed scorecard, and the precision floor CI gates
   the campaign on. *)
let pinned = "b62058149dc5b83ea4f5dcefab43f536"
let min_precision = 0.05

type setup = {
  corpus : Corpus.t;
  faults : Fault.t list;  (* in the seed's order *)
  clean : Fixture.t;
  ensemble : Rca_stats.Matrix.t;
  ect : Rca_ect.Ect.t;
}

(* [Campaign.run]'s set-up: corpus with its clean fixture, control
   ensemble, ECT fit. *)
let setup ~seed (p : Campaign.params) =
  let corpus = Corpus.generate p.Campaign.corpus in
  let clean = corpus.Corpus.fixture in
  let ensemble = Fixture.control_ensemble clean ~members:p.Campaign.ensemble_members in
  let ect = Rca_ect.Ect.fit ~var_names:Rca_synth.Model.output_names ensemble in
  { corpus; faults = ordered seed corpus; clean; ensemble; ect }

(* The same set-up call by call.  The corpus builds the clean fixture,
   so its cost is part of [faults.corpus]; the fixture-layer metrics
   count only the fixtures source faults rebuild. *)
let traced_setup ~seed (p : Campaign.params) =
  let corpus = Probe.call "faults.corpus" (fun () -> Corpus.generate p.Campaign.corpus) in
  let clean = corpus.Corpus.fixture in
  let ensemble = Stages.control_ensemble clean ~members:p.Campaign.ensemble_members in
  let ect =
    Probe.call "ect.fit" (fun () ->
        Rca_ect.Ect.fit ~var_names:Rca_synth.Model.output_names ensemble)
  in
  { corpus; faults = ordered seed corpus; clean; ensemble; ect }

(* [Campaign.run]'s assembly of per-fault results into a campaign. *)
let campaign_of (p : Campaign.params) corpus results : Campaign.t =
  let per_family =
    List.filter_map
      (fun fam ->
        match List.filter (fun r -> r.Campaign.fault.Fault.family = fam) results with
        | [] -> None
        | rs -> Some (Campaign.aggregate (Fault.family_name fam) rs))
      Fault.all_families
  in
  {
    Campaign.params = p;
    corpus;
    results;
    per_family;
    overall = Campaign.aggregate "overall" results;
  }

let crashed (r : Campaign.fault_result) =
  match r.Campaign.outcome with Campaign.Crashed _ -> true | _ -> false

(* One pass over the corpus through [run_fault] ([Campaign.run_fault]
   or its call-by-call replay); returns the results with each fault's
   wall time in seconds. *)
let pass (p : Campaign.params) s ~run_fault =
  List.map
    (fun fault ->
      let t0 = Proc.now_s () in
      let r = run_fault ~p ~clean:s.clean ~ensemble:s.ensemble ~ect:s.ect fault in
      (r, Proc.now_s () -. t0))
    s.faults

type scored_pass = { digest : string; precision : float }

let score (p : Campaign.params) s results =
  let c = campaign_of p s.corpus results in
  {
    digest = Digest.to_hex (Digest.string (Campaign.scorecard_json c));
    precision = c.Campaign.overall.Campaign.fs_pipeline.Campaign.precision;
  }

let record_faults tally ~seed timed =
  List.iter
    (fun ((r : Campaign.fault_result), _) ->
      Outcome.record tally
        ~what:
          (Printf.sprintf "campaign-tiny seed %d: fault %s crashed" seed
             r.Campaign.fault.Fault.id)
        (not (crashed r)))
    timed

let pass_checks ~seed passes =
  let digests = List.sort_uniq compare (List.map (fun sp -> sp.digest) passes) in
  [
    Outcome.check "every pass yields the same scorecard" (List.length digests = 1);
    Outcome.check
      (Printf.sprintf "pipeline precision >= %.2f" min_precision)
      (List.for_all (fun sp -> sp.precision >= min_precision) passes);
  ]
  @
  if seed = Seeds.default then
    [ Outcome.check "scorecard matches the pinned default-seed digest" (digests = [ pinned ]) ]
  else []

let untraced ~seed ~seconds : Outcome.t =
  let p = params seed in
  let timed_setups =
    List.init 3 (fun _ ->
        let t0 = Proc.now_s () in
        let s = setup ~seed p in
        (s, Proc.now_s () -. t0))
  in
  let s = fst (List.nth timed_setups 2) in
  let tally = Outcome.tally () in
  let passes = ref [] and fault_times = ref [] in
  let t_start = Proc.now_s () in
  (* at least two passes, so the scorecard's determinism is checked *)
  while List.length !passes < 2 || Proc.now_s () -. t_start < seconds do
    let timed = pass p s ~run_fault:(Campaign.run_fault ?pool:None) in
    record_faults tally ~seed timed;
    fault_times := List.rev_append (List.map snd timed) !fault_times;
    passes := score p s (List.map fst timed) :: !passes
  done;
  let elapsed = Proc.now_s () -. t_start in
  let passes = List.rev !passes in
  {
    Outcome.attempted = tally.Outcome.ops;
    failed = tally.Outcome.bad;
    checks = pass_checks ~seed passes;
    metrics =
      [
        ("setup_s", Summary.median (List.map snd timed_setups));
        ("rca_ms_p50", 1e3 *. Summary.median !fault_times);
        ("throughput_per_s", float_of_int (List.length !fault_times) /. elapsed);
        ("peak_rss_mb", Proc.peak_rss_mb 0);
      ];
    info =
      [
        ("scorecard_digest", J.Str (List.hd passes).digest);
        ("precision", J.Num (List.hd passes).precision);
        ("passes", J.num (List.length passes));
        ("faults_per_pass", J.num (List.length s.corpus.Corpus.faults));
        ("fault_samples", J.num (List.length !fault_times));
        ("setup_samples", J.num (List.length timed_setups));
        ("corpus_seed", J.num p.Campaign.corpus.Corpus.seed);
        ("order_seed", if seed = Seeds.default then J.Null else J.num (Seeds.campaign_order seed));
      ];
  }

let traced ~seed ~trace_path : Outcome.t =
  let p = params seed in
  let tally = Outcome.tally () in
  Rca_obs.Obs.disable ();
  let s0 = setup ~seed p in
  let t0 = Proc.now_s () in
  let plain = pass p s0 ~run_fault:(Campaign.run_fault ?pool:None) in
  let t_untraced = Proc.now_s () -. t0 in
  Rca_obs.Obs.enable ();
  Probe.reset ();
  let s1 = traced_setup ~seed p in
  let t1 = Proc.now_s () in
  let traced = pass p s1 ~run_fault:Stages.run_fault in
  let t_traced = Proc.now_s () -. t1 in
  Rca_obs.Obs.disable ();
  record_faults tally ~seed plain;
  record_faults tally ~seed traced;
  let scored =
    List.filter_map
      (fun ((r : Campaign.fault_result), _) ->
        match r.Campaign.outcome with Campaign.Scored sc -> Some sc | _ -> None)
      traced
  in
  let mean f =
    match scored with
    | [] -> 0.0
    | _ ->
        List.fold_left (fun acc sc -> acc +. float_of_int (f sc)) 0.0 scored
        /. float_of_int (List.length scored)
  in
  Probe.set "faults.fault_ms_p50" (1e3 *. Summary.median (List.map snd traced));
  Probe.set "faults.source_faults"
    (float_of_int (List.length (List.filter Fault.is_source_fault s1.corpus.Corpus.faults)));
  Probe.set "core.slice_nodes" (mean (fun sc -> sc.Campaign.s_slice_nodes));
  Probe.set "core.refine_iterations" (mean (fun sc -> sc.Campaign.s_iterations));
  Probe.set "core.final_nodes" (mean (fun sc -> sc.Campaign.s_candidates));
  Probe.set "obs.overhead_pct" (100.0 *. (t_traced -. t_untraced) /. t_untraced);
  Rca_obs.Obs.write_chrome_trace trace_path;
  let sp_plain = score p s0 (List.map fst plain) and sp_traced = score p s1 (List.map fst traced) in
  {
    Outcome.attempted = tally.Outcome.ops;
    failed = tally.Outcome.bad;
    checks =
      Outcome.check "traced scorecard equals untraced" (sp_plain.digest = sp_traced.digest)
      :: pass_checks ~seed [ sp_plain; sp_traced ];
    metrics = Layers.per_layer_metrics ();
    info =
      [
        ("scorecard_digest", J.Str sp_traced.digest);
        ("untraced_s", J.Num t_untraced);
        ("traced_s", J.Num t_traced);
        ("trace", J.Str trace_path);
      ];
  }
