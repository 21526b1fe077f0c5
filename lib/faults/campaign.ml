(* Campaign runner: execute the full RCA pipeline over a fault corpus and
   score localization.

   Per fault: build the (bugged) fixture, resolve the ground-truth nodes,
   gate on the UF-ECT verdict (a passing fault is recorded as undetected,
   not scored), select affected outputs exactly as the experiment harness
   does, slice + refine with simulated sampling, and score the final
   candidate set against the ground truth (precision / recall / F1).  A
   graph-free baseline — anomaly-score ranking over runtime sampling
   traces of every instrumentable node, no metagraph structure — runs on
   the same fault so the scorecard answers whether the slice/refine
   machinery earns its keep (cf. the Graph-Free RCA question in
   PAPERS.md).

   The scorecard JSON is deterministic: no wall-clock values, fixed key
   order, %.4f floats, and fault order fixed by the corpus's SplitMix
   seed — two same-seed campaigns are byte-identical. *)

open Rca_synth
open Rca_experiments
module MG = Rca_metagraph.Metagraph
module Obs = Rca_obs.Obs

type params = {
  corpus : Corpus.params;
  scale_label : string;  (* printed in the scorecard header *)
  ensemble_members : int;
  experimental_members : int;
  m_sample : int;
  gn_approx : int option;
  stop_size : int;
  selection_target : int;
  baseline_k : int;  (* candidates the graph-free ranking may return *)
  partitioner : Rca_core.Refine.partitioner;  (* step-5 community detector *)
  domains : int;
}

let default_params ?(scale_label = "tiny") config =
  {
    corpus = Corpus.default_params config;
    scale_label;
    ensemble_members = 12;
    experimental_members = 4;
    m_sample = 8;
    gn_approx = Some 64;
    stop_size = 12;
    selection_target = 5;
    baseline_k = 12;
    partitioner = Rca_core.Refine.Girvan_newman;
    domains = 1;
  }

type score = { precision : float; recall : float; f1 : float }

let zero_score = { precision = 0.0; recall = 0.0; f1 = 0.0 }

let score_sets ~expected ~candidates =
  let cands = List.sort_uniq compare candidates in
  (* membership via a hash set — [List.mem c expected] per candidate was
     O(|cands| x |expected|), the same bug class Refine/Pipeline already
     shed; scores are unchanged (recall still divides by the raw
     [expected] length) *)
  let expected_set = Hashtbl.create (max 16 (2 * List.length expected)) in
  List.iter (fun e -> Hashtbl.replace expected_set e ()) expected;
  let inter = List.length (List.filter (Hashtbl.mem expected_set) cands) in
  let ratio num den = if den = 0 then 0.0 else float_of_int num /. float_of_int den in
  let precision = ratio inter (List.length cands) in
  let recall = ratio inter (List.length expected) in
  let f1 =
    if precision +. recall = 0.0 then 0.0
    else 2.0 *. precision *. recall /. (precision +. recall)
  in
  { precision; recall; f1 }

type scored = {
  s_pipeline : score;
  s_baseline : score;
  s_iterations : int;
  s_slice_nodes : int;
  s_candidates : int;
  s_baseline_candidates : int;
  s_sampled_sites : int;  (* distinct nodes the refinement instrumented *)
  s_baseline_watched : int;  (* nodes the graph-free baseline instrumented *)
  s_located : bool;
  s_refine_outcome : string;
  s_quality : Rca_graph.Quality.report option;
      (* first iteration's partition quality (None when the refinement
         never split) — how the greedy detector is judged beyond
         the located-bugs oracle *)
}

type outcome =
  | Scored of scored
  | Undetected  (* UF-ECT passed: the fault is invisible at this scale *)
  | Crashed of string

type fault_result = {
  fault : Fault.t;
  expected_names : string list;  (* unique node names, for the scorecard *)
  outcome : outcome;
}

type family_stats = {
  fs_name : string;
  fs_total : int;
  fs_detected : int;
  fs_located : int;
  fs_crashed : int;
  fs_mean_iterations : float;  (* over detected faults *)
  fs_mean_sampled : float;  (* mean instrumented sites, pipeline *)
  fs_mean_watched : float;  (* mean instrumented sites, baseline *)
  fs_pipeline : score;  (* macro-averaged over detected faults *)
  fs_baseline : score;
}

type t = {
  params : params;
  corpus : Corpus.t;
  results : fault_result list;
  per_family : family_stats list;
  overall : family_stats;
}

(* ---- graph-free baseline --------------------------------------------------------- *)

(* Rank every non-synthetic metagraph node by an anomaly score computed
   from runtime sampling traces alone — no slice, no communities, no
   refinement.  The score is the control-vs-experimental gap normalized
   by 3x the node's internal (control-vs-control) variability, the same
   significance rule as {!Sampling.compare_runs}; a node with no
   variability falls back to a relative floor.  Candidates: the [k]
   highest-scoring significant nodes (score desc, id asc — a total,
   deterministic order).  Also returns how many nodes were instrumented —
   the baseline's cost, which the pipeline's per-iteration sampling
   undercuts by an order of magnitude (the paper's feasibility claim). *)
let baseline_candidates ~k ~(fixture : Fixture.t) ~(fault : Fault.t) : int list * int =
  Obs.span ~args:[ ("fault", Obs.Str fault.Fault.id) ] "campaign.baseline" @@ fun () ->
  let mg = fixture.Fixture.mg in
  let watched =
    List.init (MG.n_nodes mg) Fun.id
    |> List.filter (fun id -> not (MG.node mg id).MG.synthetic)
  in
  let member_opts m = Model.default_opts ~member:m fixture.Fixture.config in
  let control =
    Sampling.record_run fixture.Fixture.clean_program (member_opts 0) mg watched
  in
  let reference =
    Sampling.record_run fixture.Fixture.clean_program (member_opts 1) mg watched
  in
  let experimental =
    Sampling.record_run fixture.Fixture.exp_program
      (fault.Fault.opts (member_opts 0))
      mg watched
  in
  let huge = 1e12 in
  let score id =
    match (Hashtbl.find_opt control id, Hashtbl.find_opt experimental id) with
    | None, None -> 0.0
    | Some _, None | None, Some _ -> huge  (* executed in only one run *)
    | Some c, Some e ->
        if c.Sampling.count <> e.Sampling.count then huge
        else begin
          let r = Option.value ~default:c (Hashtbl.find_opt reference id) in
          let dim get =
            let a = get c and b = get e and rr = get r in
            let d = abs_float (a -. b) in
            if d = 0.0 then 0.0
            else
              let noise = 3.0 *. abs_float (a -. rr) in
              let floor_ = 1e-12 *. Float.max (abs_float a) (abs_float b) in
              let denom = Float.max noise floor_ in
              if denom = 0.0 then huge else d /. denom
          in
          Float.max (dim (fun t -> t.Sampling.sum)) (dim (fun t -> t.Sampling.last))
        end
  in
  let candidates =
    watched
    |> List.filter_map (fun id ->
           let s = score id in
           if s > 1.0 then Some (id, s) else None)
    |> List.sort (fun (i1, s1) (i2, s2) ->
           match compare s2 s1 with 0 -> compare i1 i2 | c -> c)
    |> List.filteri (fun i _ -> i < k)
    |> List.map fst
  in
  (candidates, List.length watched)

(* ---- per-fault execution --------------------------------------------------------- *)

(* Quality of the first refinement iteration's community split, scored on
   the subgraph it was computed on.  Post-hoc and deterministic — it
   never influences the refinement itself. *)
let first_iteration_quality (mg : MG.t) (result : Rca_core.Refine.result) =
  match result.Rca_core.Refine.iterations with
  | [] -> None
  | it :: _ when it.Rca_core.Refine.communities = [] -> None
  | it :: _ ->
      let sub =
        Rca_graph.Digraph.induced_subgraph mg.MG.graph it.Rca_core.Refine.nodes
      in
      let communities =
        List.map
          (List.filter_map (Rca_graph.Digraph.sub_of_parent sub))
          it.Rca_core.Refine.communities
      in
      Some
        (Rca_graph.Quality.of_communities sub.Rca_graph.Digraph.graph communities)

let run_fault ~(p : params) ~(clean : Fixture.t) ~ensemble ~ect ?pool (fault : Fault.t) :
    fault_result =
  Obs.span ~args:[ ("fault", Obs.Str fault.Fault.id) ] "campaign.fault" @@ fun () ->
  try
    (* configuration faults reuse the clean fixture (identical source); a
       source fault gets its own build/coverage/metagraph pass, like any
       real bugged checkout would *)
    let fixture =
      if Fault.is_source_fault fault then
        Fixture.make ~inject:fault.Fault.inject p.corpus.Corpus.config
      else clean
    in
    let expected = Fault.resolve_expected fixture.Fixture.mg fault in
    if expected = [] then
      { fault; expected_names = []; outcome = Crashed "ground truth resolved to no node" }
    else begin
      let expected_names =
        List.map (fun id -> (MG.node fixture.Fixture.mg id).MG.unique) expected
      in
      let experimental =
        Fixture.experimental_runs fixture ~members:p.experimental_members
          ~opts:fault.Fault.opts
      in
      let verdict =
        (Rca_ect.Ect.evaluate ect
           (Array.sub experimental 0 (min 3 (Array.length experimental))))
          .Rca_ect.Ect.verdict
      in
      match verdict with
      | Rca_ect.Ect.Pass -> { fault; expected_names; outcome = Undetected }
      | Rca_ect.Ect.Fail ->
          let names = Model.output_names in
          let median_selected =
            Rca_stats.Select.median_distance ~names ~ensemble ~experimental
          in
          let lasso_selected =
            Rca_stats.Select.lasso ~target:p.selection_target ~names ~ensemble
              ~experimental ()
          in
          let affected =
            Harness.choose_affected ~median_selected ~lasso_selected
              ~selection_target:p.selection_target
          in
          let detect =
            Rca_core.Detector.reachability fixture.Fixture.mg ~bug_nodes:expected
          in
          let pipeline =
            (* smallest-ancestry fallback: the Section 6.3 narrowing move
               for non-refining 8b iterations — without it faults whose
               discrepancy reaches the state hubs stall at the full slice *)
            Rca_core.Pipeline.run ~min_cluster:4 ~m_sample:p.m_sample
              ?gn_approx:p.gn_approx ~stop_size:p.stop_size
              ~partitioner:p.partitioner
              ~choose_when_stuck:
                (Rca_core.Refine.smallest_ancestry fixture.Fixture.mg)
              ?pool fixture.Fixture.mg ~outputs:affected ~detect
          in
          let result = pipeline.Rca_core.Pipeline.result in
          let located =
            Rca_core.Pipeline.located_bugs fixture.Fixture.mg pipeline
              ~bug_nodes:expected
            <> []
          in
          let bl, watched = baseline_candidates ~k:p.baseline_k ~fixture ~fault in
          let sampled_sites =
            List.concat_map
              (fun it -> it.Rca_core.Refine.sampled)
              result.Rca_core.Refine.iterations
            |> List.sort_uniq compare |> List.length
          in
          {
            fault;
            expected_names;
            outcome =
              Scored
                {
                  s_pipeline =
                    score_sets ~expected ~candidates:result.Rca_core.Refine.final_nodes;
                  s_baseline = score_sets ~expected ~candidates:bl;
                  s_iterations = List.length result.Rca_core.Refine.iterations;
                  s_slice_nodes = Rca_core.Slice.size pipeline.Rca_core.Pipeline.slice;
                  s_candidates = List.length result.Rca_core.Refine.final_nodes;
                  s_baseline_candidates = List.length bl;
                  s_sampled_sites = sampled_sites;
                  s_baseline_watched = watched;
                  s_located = located;
                  s_refine_outcome =
                    Rca_core.Refine.outcome_string result.Rca_core.Refine.outcome;
                  s_quality = first_iteration_quality fixture.Fixture.mg result;
                };
          }
    end
  with e -> { fault; expected_names = []; outcome = Crashed (Printexc.to_string e) }

(* ---- aggregation ------------------------------------------------------------------ *)

let mean = function
  | [] -> 0.0
  | xs -> List.fold_left ( +. ) 0.0 xs /. float_of_int (List.length xs)

let aggregate name (results : fault_result list) : family_stats =
  let scored =
    List.filter_map (fun r -> match r.outcome with Scored s -> Some s | _ -> None) results
  in
  let crashed =
    List.length
      (List.filter (fun r -> match r.outcome with Crashed _ -> true | _ -> false) results)
  in
  let avg get = mean (List.map get scored) in
  {
    fs_name = name;
    fs_total = List.length results;
    fs_detected = List.length scored;
    fs_located = List.length (List.filter (fun s -> s.s_located) scored);
    fs_crashed = crashed;
    fs_mean_iterations = avg (fun s -> float_of_int s.s_iterations);
    fs_mean_sampled = avg (fun s -> float_of_int s.s_sampled_sites);
    fs_mean_watched = avg (fun s -> float_of_int s.s_baseline_watched);
    fs_pipeline =
      {
        precision = avg (fun s -> s.s_pipeline.precision);
        recall = avg (fun s -> s.s_pipeline.recall);
        f1 = avg (fun s -> s.s_pipeline.f1);
      };
    fs_baseline =
      {
        precision = avg (fun s -> s.s_baseline.precision);
        recall = avg (fun s -> s.s_baseline.recall);
        f1 = avg (fun s -> s.s_baseline.f1);
      };
  }

let run (p : params) : t =
  Obs.span' "campaign.run"
    (fun t ->
      [
        ("faults", Obs.Int (List.length t.results));
        ("located", Obs.Int t.overall.fs_located);
        ("crashed", Obs.Int t.overall.fs_crashed);
      ])
  @@ fun () ->
  let corpus = Corpus.generate p.corpus in
  let clean = corpus.Corpus.fixture in
  let ensemble = Fixture.control_ensemble clean ~members:p.ensemble_members in
  let ect = Rca_ect.Ect.fit ~var_names:Model.output_names ensemble in
  (* One pool for the whole campaign: worker domains are spawned once
     and every fault's refinement reuses them, instead of a spawn +
     join per pipeline run.  The requested size is clamped to the
     machine's usable parallelism; an effective size of 1 runs the
     sequential paths with no pool at all. *)
  let with_campaign_pool f =
    let k = Rca_graph.Pool.recommended_size ~requested:p.domains in
    if k > 1 then Rca_graph.Pool.with_pool k (fun pool -> f (Some pool))
    else f None
  in
  let results =
    with_campaign_pool (fun pool ->
        List.map (run_fault ~p ~clean ~ensemble ~ect ?pool) corpus.Corpus.faults)
  in
  let per_family =
    List.filter_map
      (fun fam ->
        match
          List.filter (fun r -> r.fault.Fault.family = fam) results
        with
        | [] -> None
        | rs -> Some (aggregate (Fault.family_name fam) rs))
      Fault.all_families
  in
  { params = p; corpus; results; per_family; overall = aggregate "overall" results }

let families_present t = List.length t.per_family

(* ---- scorecard ------------------------------------------------------------------- *)

let json_escape s =
  let buf = Buffer.create (String.length s + 8) in
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | '\t' -> Buffer.add_string buf "\\t"
      | c when Char.code c < 0x20 -> Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char buf c)
    s;
  Buffer.contents buf

let score_json s =
  Printf.sprintf {|{"precision": %.4f, "recall": %.4f, "f1": %.4f}|} s.precision s.recall
    s.f1

let fault_json (r : fault_result) =
  let f = r.fault in
  let head =
    Printf.sprintf
      {|"id": "%s", "family": "%s", "file": "%s", "line": %d, "description": "%s", "expected": [%s]|}
      (json_escape f.Fault.id)
      (Fault.family_name f.Fault.family)
      (json_escape f.Fault.file) f.Fault.line
      (json_escape f.Fault.description)
      (String.concat ", "
         (List.map (fun n -> "\"" ^ json_escape n ^ "\"") r.expected_names))
  in
  match r.outcome with
  | Crashed msg ->
      Printf.sprintf {|{%s, "status": "crashed", "error": "%s"}|} head (json_escape msg)
  | Undetected -> Printf.sprintf {|{%s, "status": "undetected"}|} head
  | Scored s ->
      let quality =
        match s.s_quality with
        | None -> ""
        | Some q -> Printf.sprintf {|, "quality": %s|} (Rca_graph.Quality.summary_json q)
      in
      Printf.sprintf
        {|{%s, "status": "scored", "located": %b, "iterations": %d, "slice_nodes": %d, "refine_outcome": "%s", "candidates": %d, "sampled_sites": %d, "pipeline": %s, "baseline_candidates": %d, "baseline_watched": %d, "baseline": %s%s}|}
        head s.s_located s.s_iterations s.s_slice_nodes
        (json_escape s.s_refine_outcome)
        s.s_candidates s.s_sampled_sites (score_json s.s_pipeline) s.s_baseline_candidates
        s.s_baseline_watched (score_json s.s_baseline) quality

let family_json (fs : family_stats) =
  Printf.sprintf
    {|{"family": "%s", "faults": %d, "detected": %d, "located": %d, "crashed": %d, "mean_iterations": %.2f, "mean_sampled_sites": %.1f, "mean_baseline_watched": %.1f, "pipeline": %s, "baseline": %s}|}
    (json_escape fs.fs_name) fs.fs_total fs.fs_detected fs.fs_located fs.fs_crashed
    fs.fs_mean_iterations fs.fs_mean_sampled fs.fs_mean_watched
    (score_json fs.fs_pipeline) (score_json fs.fs_baseline)

let scorecard_json (t : t) : string =
  let buf = Buffer.create 8192 in
  let p = t.params in
  Buffer.add_string buf
    (Printf.sprintf
       {|{
  "campaign": {"scale": "%s", "seed": %d, "detector": "%s", "faults": %d, "families": %d, "max_per_family": %d, "ensemble_members": %d, "experimental_members": %d, "stop_size": %d, "baseline_k": %d},
|}
       (json_escape p.scale_label) p.corpus.Corpus.seed
       (Rca_core.Refine.partitioner_string p.partitioner)
       (List.length t.results) (families_present t) p.corpus.Corpus.max_per_family
       p.ensemble_members p.experimental_members p.stop_size p.baseline_k);
  Buffer.add_string buf "  \"faults\": [\n";
  List.iteri
    (fun i r ->
      Buffer.add_string buf "    ";
      Buffer.add_string buf (fault_json r);
      if i < List.length t.results - 1 then Buffer.add_char buf ',';
      Buffer.add_char buf '\n')
    t.results;
  Buffer.add_string buf "  ],\n  \"families\": [\n";
  List.iteri
    (fun i fs ->
      Buffer.add_string buf "    ";
      Buffer.add_string buf (family_json fs);
      if i < List.length t.per_family - 1 then Buffer.add_char buf ',';
      Buffer.add_char buf '\n')
    t.per_family;
  Buffer.add_string buf "  ],\n  \"overall\": ";
  Buffer.add_string buf (family_json t.overall);
  Buffer.add_string buf "\n}\n";
  Buffer.contents buf

(* ---- report ----------------------------------------------------------------------- *)

let pp ppf (t : t) =
  Format.fprintf ppf "campaign: %d faults, %d families (scale %s, seed %d)@."
    (List.length t.results) (families_present t) t.params.scale_label
    t.params.corpus.Corpus.seed;
  Format.fprintf ppf "%-18s %6s %8s %7s %7s %6s %6s %6s %6s | %6s %6s %7s@." "family"
    "faults" "detected" "located" "crashed" "prec" "recall" "iters" "sites" "b-prec"
    "b-rec" "b-sites";
  let row (fs : family_stats) =
    Format.fprintf ppf
      "%-18s %6d %8d %7d %7d %6.3f %6.3f %6.2f %6.1f | %6.3f %6.3f %7.1f@." fs.fs_name
      fs.fs_total fs.fs_detected fs.fs_located fs.fs_crashed fs.fs_pipeline.precision
      fs.fs_pipeline.recall fs.fs_mean_iterations fs.fs_mean_sampled
      fs.fs_baseline.precision fs.fs_baseline.recall fs.fs_mean_watched
  in
  List.iter row t.per_family;
  row t.overall;
  List.iter
    (fun r ->
      match r.outcome with
      | Crashed msg -> Format.fprintf ppf "CRASH %s: %s@." r.fault.Fault.id msg
      | _ -> ())
    t.results
