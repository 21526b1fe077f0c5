(* The repository's benchmark.

     main.exe --workload rca-paper|campaign-tiny|serve-small
              --seed N --seconds S --trace 0|1

   An untraced run (--trace 0) measures the end-to-end metrics; a traced
   run (--trace 1) enables Obs, times every layer call from here, writes
   a Chrome trace under perfbench_out/ and reports the per-layer metrics
   and the tracing overhead.  Both check the program's answers.  Details
   (digests, sample counts, load shape, provenance) are printed as one
   JSON line; the last line of standard output is the result:
   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}. *)

module J = Rca_serve.Jsonio

let out_dir = "perfbench_out"

let workloads =
  [
    ("rca-paper", ("paper", Rca_paper.config, Rca_paper.untraced, Rca_paper.traced));
    ("campaign-tiny", ("tiny", Campaign_tiny.config, Campaign_tiny.untraced, Campaign_tiny.traced));
    ("serve-small", ("small", Serve_small.config, Serve_small.untraced, Serve_small.traced));
  ]

let usage () =
  prerr_endline
    "usage: main.exe --workload rca-paper|campaign-tiny|serve-small --seed N --seconds S \
     --trace 0|1";
  exit 2

let parse_args argv =
  let rec go acc = function
    | flag :: value :: rest when String.length flag > 2 && String.sub flag 0 2 = "--" ->
        go ((String.sub flag 2 (String.length flag - 2), value) :: acc) rest
    | [] -> acc
    | _ -> usage ()
  in
  let args = go [] argv in
  let get name = match List.assoc_opt name args with Some v -> v | None -> usage () in
  let int name = match int_of_string_opt (get name) with Some i -> i | None -> usage () in
  let workload = get "workload" in
  if not (List.mem_assoc workload workloads) then usage ();
  let trace = match get "trace" with "0" -> false | "1" -> true | _ -> usage () in
  (workload, int "seed", float_of_int (int "seconds"), trace)

let result_line (o : Outcome.t) =
  let units = Layers.end_to_end @ Layers.per_layer in
  let metric (name, v) =
    Printf.sprintf "%S: {\"value\": %.17g, \"unit\": %S}" name v (List.assoc name units)
  in
  Printf.sprintf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}"
    (Outcome.correct o) o.Outcome.attempted o.Outcome.failed
    (String.concat ", " (List.map metric o.Outcome.metrics))

let run_workload argv =
  let workload, seed, seconds, trace = parse_args argv in
  (* A checkout without the library cannot be measured. *)
  if not (Sys.file_exists "lib" && Sys.is_directory "lib") then begin
    prerr_endline "perfbench: run from the root of the repository";
    exit 2
  end;
  if not (Sys.file_exists out_dir) then Unix.mkdir out_dir 0o755;
  let scale, config, untraced, traced = List.assoc workload workloads in
  let trace_path = Printf.sprintf "%s/trace-%s-seed%d.json" out_dir workload seed in
  (* SIGTERM/SIGINT exit through at_exit, which stops any daemon *)
  List.iter
    (fun s -> Sys.set_signal s (Sys.Signal_handle (fun _ -> exit 143)))
    [ Sys.sigterm; Sys.sigint ];
  let ticks0 = Proc.cpu_ticks () in
  let o = if trace then traced ~seed ~trace_path else untraced ~seed ~seconds in
  let steal = Proc.steal_pct ticks0 (Proc.cpu_ticks ()) in
  let expected = List.map fst (if trace then Layers.per_layer else Layers.end_to_end) in
  if List.map fst o.Outcome.metrics <> expected then
    failwith "metrics do not match the registry";
  (* a metric that could not be measured (no samples) reads 0 and fails
     the run, so the result line stays valid JSON *)
  let unmeasured = List.filter (fun (_, v) -> not (Float.is_finite v)) o.Outcome.metrics in
  let o =
    {
      o with
      Outcome.metrics =
        List.map (fun (n, v) -> (n, if Float.is_finite v then v else 0.0)) o.Outcome.metrics;
      checks =
        o.Outcome.checks
        @ (if unmeasured = [] then []
           else [ Outcome.check ("measured: " ^ String.concat ", " (List.map fst unmeasured)) false ]);
    }
  in
  print_endline
    (J.to_string
       (J.Obj
          [
            ("provenance", Provenance.json ~workload ~seed ~seconds ~trace ~scale (config seed));
            ("steal_pct", J.Num steal);
            ("checks", J.Obj (List.map (fun (n, ok) -> (n, J.Bool ok)) o.Outcome.checks));
            ("details", J.Obj o.Outcome.info);
          ]));
  print_endline (result_line o)

let () =
  match Array.to_list Sys.argv with
  | [ _; flag ] when flag = Proc.ready_flag ->
      print_endline (Int64.to_string (Rca_obs.Obs.monotonic_ns ()))
  | [ _; flag; snapshot; socket; summary ] when flag = Serve_small.daemon_flag ->
      Serve_small.daemon_main ~snapshot ~socket ~summary
  | _ :: argv -> run_workload argv
  | [] -> usage ()
