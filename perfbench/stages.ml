(* The library's composite calls taken apart call by call, so a traced
   run can time every layer from outside the library.

   [fixture], [select] and [pipeline] replay [Fixture.make],
   [Harness.select_affected] and [Pipeline.run] (masked engine, no static
   pruning) with the same arguments in the same order, each layer call
   wrapped in {!Probe.call}; [rca] replays [Harness.run] with the default
   simulated detector, and [run_fault] replays [Campaign.run_fault].
   Traced runs check that a replay's {!digest} (or scorecard) equals the
   library path's, so the per-layer numbers describe the computation the
   untraced runs time. *)

open Rca_synth
open Rca_experiments
open Rca_faults
module MG = Rca_metagraph.Metagraph
module Core = Rca_core

(* One interpreter run as [Model.run] performs it, with its step count. *)
let interp_run program opts =
  let m = Probe.call "interp.run" (fun () -> Model.run_machine program opts) in
  Probe.add "interp.steps" (float_of_int m.Rca_interp.Machine.steps);
  Model.output_vector m

let fixture ?(inject = Fun.id) (config : Config.t) : Fixture.t =
  Probe.call "experiments.fixture" @@ fun () ->
  let clean_sources = Probe.call "synth.generate" (fun () -> Model.generate config) in
  let exp_sources = inject clean_sources in
  let parse s = Probe.call "fortran.parse" (fun () -> Model.parse_program ~strict:false s) in
  let clean_program = Model.build_filter (parse clean_sources) ~driver:"cam_driver" in
  let exp_program = Model.build_filter (parse exp_sources) ~driver:"cam_driver" in
  let coverage_report, covered_program =
    Probe.call "coverage.probe" (fun () ->
        let cov = Rca_coverage.Coverage.create () in
        let probe_opts = { (Model.default_opts config) with Model.nsteps = 2 } in
        ignore
          (Probe.call "interp.hooked_run" (fun () ->
               Model.run_machine
                 ~machine_hooks:(Rca_coverage.Coverage.attach cov)
                 exp_program probe_opts));
        let report = Rca_coverage.Coverage.report exp_program cov in
        (report, Rca_coverage.Coverage.filter_program exp_program cov))
  in
  let mg = Probe.call "metagraph.build" (fun () -> MG.build covered_program) in
  Probe.set "metagraph.nodes" (float_of_int (MG.n_nodes mg));
  Probe.set "metagraph.edges" (float_of_int (Rca_graph.Digraph.m mg.MG.graph));
  let built_names =
    List.map (fun m -> m.Rca_fortran.Ast.m_name) exp_program |> List.sort_uniq compare
  in
  let module_loc =
    List.filter_map
      (fun (file, src) ->
        let name = Fixture.module_name_of_file file in
        if List.mem name built_names then Some (name, Rca_fortran.Source.count_code_lines src)
        else None)
      exp_sources.Model.files
  in
  Probe.set "fortran.code_lines"
    (float_of_int (List.fold_left (fun acc (_, n) -> acc + n) 0 module_loc));
  {
    Fixture.config;
    clean_sources;
    exp_sources;
    clean_program;
    exp_program;
    covered_program;
    coverage_report;
    mg;
    module_loc;
  }

(* [Fixture.control_ensemble], run by run. *)
let control_ensemble (fx : Fixture.t) ~members =
  Probe.call "experiments.control_ensemble" (fun () ->
      Array.init members (fun member ->
          interp_run fx.Fixture.clean_program (Model.default_opts ~member fx.Fixture.config)))

let select (spec : Harness.spec) (p : Harness.params) (fx : Fixture.t) : Harness.selection =
  let ensemble = control_ensemble fx ~members:p.Harness.ensemble_members in
  let ect =
    Probe.call "ect.fit" (fun () -> Rca_ect.Ect.fit ~var_names:Model.output_names ensemble)
  in
  let experimental =
    Probe.call "experiments.experimental_runs" (fun () ->
        Array.init p.Harness.experimental_members (fun i ->
            interp_run fx.Fixture.exp_program
              (spec.Harness.opts (Model.default_opts ~member:(1000 + i) fx.Fixture.config))))
  in
  let verdict =
    (Rca_ect.Ect.evaluate ect (Array.sub experimental 0 (min 3 (Array.length experimental))))
      .Rca_ect.Ect.verdict
  in
  let names = Model.output_names in
  let median_selected =
    Probe.call "stats.median_distance" (fun () ->
        Rca_stats.Select.median_distance ~names ~ensemble ~experimental)
  in
  let lasso_selected =
    Probe.call "stats.lasso" (fun () ->
        Rca_stats.Select.lasso ~target:spec.Harness.selection_target ~names ~ensemble
          ~experimental ())
  in
  {
    Harness.sel_ect_verdict = verdict;
    sel_median = median_selected;
    sel_lasso = lasso_selected;
    sel_affected =
      Harness.choose_affected ~median_selected ~lasso_selected
        ~selection_target:spec.Harness.selection_target;
  }

let freeze (mg : MG.t) = Probe.call "core.freeze" (fun () -> Core.Frozen.freeze mg.MG.graph)

let pipeline ?keep_module ~m_sample ?gn_approx ~stop_size ~partitioner ?choose_when_stuck
    ?domains (mg : MG.t) ~outputs ~detect : Core.Pipeline.t =
  let frozen = freeze mg in
  let slice =
    Probe.call "core.slice" (fun () ->
        Core.Slice.of_outputs ?keep_module ~min_cluster:4 ~engine:`Masked ~frozen ~exclude:[]
          mg outputs)
  in
  let result =
    Probe.call "core.refine" (fun () ->
        Core.Refine.refine ~m_sample ?gn_approx ~stop_size ~partitioner ?choose_when_stuck
          ?domains ~engine:`Masked ~frozen mg ~initial:slice.Core.Slice.nodes ~detect)
  in
  Probe.set "core.slice_nodes" (float_of_int (Core.Slice.size slice));
  Probe.set "core.refine_iterations" (float_of_int (List.length result.Core.Refine.iterations));
  Probe.set "core.final_nodes" (float_of_int (List.length result.Core.Refine.final_nodes));
  { Core.Pipeline.slice; result }

(* What a single-shot RCA answers, from either path. *)
type rca = {
  verdict : Rca_ect.Ect.verdict;
  affected : string list;
  mg : MG.t;
  pipe : Core.Pipeline.t;
  bugs_located : bool;
  agreement : float option;
}

let of_report (r : Harness.report) =
  {
    verdict = r.Harness.ect_verdict;
    affected = r.Harness.affected_outputs;
    mg = r.Harness.fixture.Fixture.mg;
    pipe = r.Harness.pipeline;
    bugs_located = r.Harness.bugs_located;
    agreement = r.Harness.sampling_agreement;
  }

(* [Harness.run spec p] for [p.detector = Simulated], [static_prune =
   false] and sampling validation on. *)
let rca (spec : Harness.spec) (p : Harness.params) : rca =
  if p.Harness.detector <> Harness.Simulated || p.Harness.static_prune then
    invalid_arg "Stages.rca: only the default detector and no static pruning";
  let fx = fixture ~inject:spec.Harness.inject p.Harness.config in
  let sel = select spec p fx in
  let mg = fx.Fixture.mg in
  let bug_nodes = Fixture.bug_nodes fx ~canonicals:spec.Harness.bug_canonicals in
  let keep_module = if spec.Harness.restrict_to_cam then Outputs.is_cam_module else fun _ -> true in
  let simulated = Core.Detector.reachability mg ~bug_nodes in
  let pipe =
    pipeline ~keep_module ~m_sample:p.Harness.m_sample ?gn_approx:p.Harness.gn_approx
      ~stop_size:p.Harness.stop_size ~partitioner:p.Harness.partitioner
      ~domains:p.Harness.domains mg ~outputs:sel.Harness.sel_affected ~detect:simulated
  in
  let iterations = pipe.Core.Pipeline.result.Core.Refine.iterations in
  let sampled = Hashtbl.create 64 and final = Hashtbl.create 64 in
  List.iter
    (fun it -> List.iter (fun v -> Hashtbl.replace sampled v ()) it.Core.Refine.sampled)
    iterations;
  List.iter (fun v -> Hashtbl.replace final v ()) pipe.Core.Pipeline.result.Core.Refine.final_nodes;
  let bugs_located =
    List.exists (fun b -> Hashtbl.mem final b || Hashtbl.mem sampled b) bug_nodes
  in
  let agreement =
    match iterations with
    | [] -> None
    | it :: _ ->
        Probe.call "experiments.validation" (fun () ->
            let runtime sampled = Sampling.detector ~fixture:fx ~opts:spec.Harness.opts sampled in
            Some (Sampling.agreement simulated runtime it.Core.Refine.sampled))
  in
  {
    verdict = sel.Harness.sel_ect_verdict;
    affected = sel.Harness.sel_affected;
    mg;
    pipe;
    bugs_located;
    agreement;
  }

(* [Campaign.run_fault] without a pool. *)
let run_fault ~(p : Campaign.params) ~(clean : Fixture.t) ~ensemble ~ect (fault : Fault.t) :
    Campaign.fault_result =
  Probe.call "faults.fault" @@ fun () ->
  try
    let fx =
      if Fault.is_source_fault fault then
        fixture ~inject:fault.Fault.inject p.Campaign.corpus.Corpus.config
      else clean
    in
    let mg = fx.Fixture.mg in
    let expected = Fault.resolve_expected mg fault in
    if expected = [] then
      {
        Campaign.fault;
        expected_names = [];
        outcome = Campaign.Crashed "ground truth resolved to no node";
      }
    else begin
      let expected_names = List.map (fun id -> (MG.node mg id).MG.unique) expected in
      let experimental =
        Probe.call "experiments.experimental_runs" (fun () ->
            Array.init p.Campaign.experimental_members (fun i ->
                interp_run fx.Fixture.exp_program
                  (fault.Fault.opts (Model.default_opts ~member:(1000 + i) fx.Fixture.config))))
      in
      match
        (Rca_ect.Ect.evaluate ect
           (Array.sub experimental 0 (min 3 (Array.length experimental))))
          .Rca_ect.Ect.verdict
      with
      | Rca_ect.Ect.Pass -> { Campaign.fault; expected_names; outcome = Campaign.Undetected }
      | Rca_ect.Ect.Fail ->
          let names = Model.output_names in
          let median_selected =
            Probe.call "stats.median_distance" (fun () ->
                Rca_stats.Select.median_distance ~names ~ensemble ~experimental)
          in
          let lasso_selected =
            Probe.call "stats.lasso" (fun () ->
                Rca_stats.Select.lasso ~target:p.Campaign.selection_target ~names ~ensemble
                  ~experimental ())
          in
          let affected =
            Harness.choose_affected ~median_selected ~lasso_selected
              ~selection_target:p.Campaign.selection_target
          in
          let pipe =
            pipeline ~m_sample:p.Campaign.m_sample ?gn_approx:p.Campaign.gn_approx
              ~stop_size:p.Campaign.stop_size ~partitioner:p.Campaign.partitioner
              ~choose_when_stuck:(Core.Refine.smallest_ancestry mg) mg ~outputs:affected
              ~detect:(Core.Detector.reachability mg ~bug_nodes:expected)
          in
          let result = pipe.Core.Pipeline.result in
          let bl, watched =
            Probe.call "faults.baseline" (fun () ->
                Campaign.baseline_candidates ~k:p.Campaign.baseline_k ~fixture:fx ~fault)
          in
          let sampled_sites =
            List.concat_map (fun it -> it.Core.Refine.sampled) result.Core.Refine.iterations
            |> List.sort_uniq compare |> List.length
          in
          {
            Campaign.fault;
            expected_names;
            outcome =
              Campaign.Scored
                {
                  Campaign.s_pipeline =
                    Campaign.score_sets ~expected ~candidates:result.Core.Refine.final_nodes;
                  s_baseline = Campaign.score_sets ~expected ~candidates:bl;
                  s_iterations = List.length result.Core.Refine.iterations;
                  s_slice_nodes = Core.Slice.size pipe.Core.Pipeline.slice;
                  s_candidates = List.length result.Core.Refine.final_nodes;
                  s_baseline_candidates = List.length bl;
                  s_sampled_sites = sampled_sites;
                  s_baseline_watched = watched;
                  s_located = Core.Pipeline.located_bugs mg pipe ~bug_nodes:expected <> [];
                  s_refine_outcome = Core.Refine.outcome_string result.Core.Refine.outcome;
                  s_quality = Campaign.first_iteration_quality mg result;
                };
          }
    end
  with e ->
    { Campaign.fault; expected_names = []; outcome = Campaign.Crashed (Printexc.to_string e) }

let ints xs = String.concat "," (List.map string_of_int xs)

(* MD5 over everything an RCA answers: verdict, selection, slice, every
   iteration's sizes, samples and detections, the final candidates and
   the located/validation outcome. *)
let digest (r : rca) =
  let result = r.pipe.Core.Pipeline.result in
  let lines =
    [
      Rca_ect.Ect.verdict_string r.verdict;
      String.concat "," r.affected;
      ints r.pipe.Core.Pipeline.slice.Core.Slice.nodes;
      Core.Refine.outcome_string result.Core.Refine.outcome;
      ints result.Core.Refine.final_nodes;
      string_of_bool r.bugs_located;
      (match r.agreement with None -> "-" | Some a -> Printf.sprintf "%.17g" a);
    ]
    @ List.map
        (fun it ->
          Printf.sprintf "%d %d [%s] [%s]" it.Core.Refine.n_nodes it.Core.Refine.n_edges
            (ints it.Core.Refine.sampled) (ints it.Core.Refine.detected))
        result.Core.Refine.iterations
    @ List.map
        (fun (name, m, sub, line) -> Printf.sprintf "%s %s %s %d" name m sub line)
        (Core.Pipeline.candidates r.mg r.pipe)
  in
  Digest.to_hex (Digest.string (String.concat "\n" lines))
