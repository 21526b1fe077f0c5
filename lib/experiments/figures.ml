(* Figure data series:
   - Fig. 4 / 9: degree distribution of the full model digraph;
   - Fig. 10: degree distribution of the GOFFGRATCH slice;
   - Fig. 11: rank-vs-centrality curves for eigenvector vs Hashimoto
     non-backtracking centrality on the GOFFGRATCH slice. *)

module MG = Rca_metagraph.Metagraph
module G = Rca_graph

type degree_figure = {
  label : string;
  histogram : (int * int) list;  (* degree, count *)
  ccdf : (int * float) list;
  alpha : float option;  (* power-law exponent estimate *)
  summary : G.Gstats.summary;
}

let degree_figure ~label g =
  {
    label;
    histogram = G.Gstats.degree_histogram g;
    ccdf = G.Gstats.degree_ccdf g;
    alpha = G.Gstats.power_law_alpha g;
    summary = G.Gstats.summarize g;
  }

let fig4 (mg : MG.t) = degree_figure ~label:"Fig 4/9: full model digraph" mg.MG.graph

(* The slice Figs. 10 and 11 draw: the GOFFGRATCH-injected model sliced
   on the paper's five affected outputs, CAM modules only, residual
   clusters under 4 nodes dropped, before any refinement.  No ensemble
   runs: the outputs are fixed rather than ECT-selected. *)
let goffgratch_slice config =
  let spec = Experiments.goffgratch in
  let fixture = Fixture.make ~inject:spec.Harness.inject config in
  let mg = fixture.Fixture.mg in
  let bug_nodes = Fixture.bug_nodes fixture ~canonicals:spec.Harness.bug_canonicals in
  let pipeline =
    Rca_core.Pipeline.run ~keep_module:Rca_synth.Outputs.is_cam_module ~min_cluster:4
      ~max_iterations:0 mg
      ~outputs:[ "cloud"; "cldtot"; "aqsnow"; "freqs"; "ccn3" ]
      ~detect:(Rca_core.Detector.reachability mg ~bug_nodes)
  in
  pipeline.Rca_core.Pipeline.slice

let fig10 (slice : Rca_core.Slice.t) =
  let sub = Rca_core.Slice.subgraph slice in
  degree_figure ~label:"Fig 10: GOFFGRATCH subgraph" sub.G.Digraph.graph

type centrality_figure = {
  eigen_series : (int * float) list;  (* rank, |score| *)
  hashimoto_series : (int * float) list;
}

(* Fig. 11: both centralities on the slice subgraph.  The Hashimoto
   centrality assigns nothing to isolated nodes, hence its shorter
   support (the sharp drop the paper notes). *)
let fig11 (slice : Rca_core.Slice.t) =
  let sub = Rca_core.Slice.subgraph slice in
  let g = sub.G.Digraph.graph in
  let eigen = G.Centrality.eigenvector ~direction:G.Centrality.In g in
  let hashi = G.Centrality.non_backtracking ~direction:G.Centrality.In g in
  {
    eigen_series = G.Gstats.rank_series eigen;
    hashimoto_series =
      G.Gstats.rank_series hashi |> List.filter (fun (_, s) -> s > 0.0);
  }

(* Log-binned printing: one row per power-of-two degree bucket. *)
let pp_degree_figure ppf f =
  Format.fprintf ppf "%s@.  %a@." f.label G.Gstats.pp_summary f.summary;
  let bucket = Hashtbl.create 16 in
  List.iter
    (fun (d, c) ->
      let b =
        if d = 0 then 0
        else begin
          let rec log2 n acc = if n <= 1 then acc else log2 (n / 2) (acc + 1) in
          1 lsl log2 d 0
        end
      in
      Hashtbl.replace bucket b (c + Option.value ~default:0 (Hashtbl.find_opt bucket b)))
    f.histogram;
  Hashtbl.fold (fun b c acc -> (b, c) :: acc) bucket []
  |> List.sort compare
  |> List.iter (fun (b, c) -> Format.fprintf ppf "  degree ~%-6d count %d@." b c)

let pp_centrality_figure ppf f =
  let sample series =
    let arr = Array.of_list series in
    let n = Array.length arr in
    List.filter_map
      (fun r -> if r < n then Some arr.(r) else None)
      [ 0; 1; 3; 7; 15; 31; 63; 127; 255; 511; n - 1 ]
    |> List.sort_uniq compare
  in
  Format.fprintf ppf "Fig 11: rank vs |centrality| (eigenvector / non-backtracking)@.";
  Format.fprintf ppf "  eigenvector:      %s@."
    (String.concat " "
       (List.map (fun (r, s) -> Printf.sprintf "(%d, %.2e)" r s) (sample f.eigen_series)));
  Format.fprintf ppf "  non-backtracking: %s@."
    (String.concat " "
       (List.map (fun (r, s) -> Printf.sprintf "(%d, %.2e)" r s) (sample f.hashimoto_series)))
