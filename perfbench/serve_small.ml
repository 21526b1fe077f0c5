(* serve-small: the query daemon under closed-loop load.

   Set-up compiles a small-scale GOFFGRATCH snapshot, saves it, and
   starts a daemon process that loads it; set-up ends at the daemon's
   first ping reply.  Then a closed loop sends each query as soon as the
   previous reply arrives — callers are developer tools that wait for
   their answer.  Queries use the greedy detector over a fixed catalogue
   of keys 32 times the daemon's LRU capacity, drawn with Zipf-skewed
   popularity, so misses (cold replies, computed and written to the
   cache, evicting) mix with hits (warm replies).  After set-up the
   interpreter does no work: JSON codec, reactor, LRU and greedy
   refinement are what is timed. *)

open Rca_experiments
module J = Rca_serve.Jsonio
module Snapshot = Rca_serve.Snapshot
module Core = Rca_core
module MG = Rca_metagraph.Metagraph

let spec = Experiments.goffgratch
let config _seed = Rca_synth.Config.small
let cache_capacity = 64
let universe_size = 32 * cache_capacity
let zipf_s = 1.0
let detector = "greedy"

(* Requests per phase of a traced run: one untraced and one traced
   daemon answer the same prefix of the stream. *)
let traced_requests = 800

(* Flag that makes the benchmark binary run the daemon:
   [--daemon SNAPSHOT SOCKET SUMMARY], where SUMMARY is "-" or the path
   for the daemon's Obs summary (written on shutdown, with a Chrome trace
   beside it). *)
let daemon_flag = "--daemon"

let daemon_main ~snapshot ~socket ~summary =
  match Snapshot.load snapshot with
  | Error msg ->
      Printf.eprintf "perfbench daemon: %s\n%!" msg;
      exit 2
  | Ok snap ->
      if summary <> "-" then Rca_obs.Obs.enable ();
      ignore (Rca_serve.Server.serve ~cache_capacity (`Unix socket) snap);
      if summary <> "-" then begin
        Rca_obs.Obs.write_summary summary;
        Rca_obs.Obs.write_chrome_trace (Filename.remove_extension summary ^ ".trace.json")
      end;
      exit 0

(* ---- set-up --------------------------------------------------------------- *)

(* What [rca_main compile] bakes for an experiment: fixture, selection,
   bug nodes, frozen CSR, module restriction. *)
let build ~traced cfg : Snapshot.t =
  let p = Harness.default_params cfg in
  let fixture =
    if traced then Stages.fixture ~inject:spec.Harness.inject cfg
    else Fixture.make ~inject:spec.Harness.inject cfg
  in
  let sel =
    if traced then Stages.select spec p fixture else Harness.select_affected spec p fixture
  in
  let mg = fixture.Fixture.mg in
  let frozen = if traced then Stages.freeze mg else Core.Frozen.freeze mg.MG.graph in
  {
    Snapshot.version = Snapshot.current_version;
    fingerprint =
      Printf.sprintf "perfbench serve-small seed=%d nodes=%d" cfg.Rca_synth.Config.seed
        (MG.n_nodes mg);
    scale = "small";
    experiment = spec.Harness.name;
    mg;
    frozen;
    keep_modules =
      (if spec.Harness.restrict_to_cam then
         Some
           (Array.to_list mg.MG.node_meta
           |> List.map (fun nd -> nd.MG.module_)
           |> List.sort_uniq compare
           |> List.filter Rca_synth.Outputs.is_cam_module)
       else None);
    bug_nodes = Fixture.bug_nodes fixture ~canonicals:spec.Harness.bug_canonicals;
    default_targets = sel.Harness.sel_affected;
  }

let daemons : int list ref = ref []

(* Stop any daemon still running when the benchmark exits, whatever the
   path out. *)
let () =
  at_exit (fun () ->
      List.iter
        (fun pid ->
          (try Unix.kill pid Sys.sigterm with Unix.Unix_error _ -> ());
          try ignore (Unix.waitpid [] pid) with Unix.Unix_error _ -> ())
        !daemons)

let spawn_daemon ~snapshot ~socket ~summary =
  let pid =
    Unix.create_process Sys.executable_name
      [| Sys.executable_name; daemon_flag; snapshot; socket; summary |]
      Unix.stdin Unix.stderr Unix.stderr
  in
  daemons := pid :: !daemons;
  pid

(* ---- line protocol -------------------------------------------------------- *)

type conn = { fd : Unix.file_descr; buf : Buffer.t }

let write_all fd s =
  let b = Bytes.of_string s in
  let off = ref 0 in
  while !off < Bytes.length b do
    off := !off + Unix.write fd b !off (Bytes.length b - !off)
  done

(* Complete lines now buffered on [c], after one read. *)
let read_lines c =
  let chunk = Bytes.create 65536 in
  let n =
    try Unix.read c.fd chunk 0 (Bytes.length chunk)
    with Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) ->
      failwith "serve-small: no reply within 60 s"
  in
  if n = 0 then failwith "daemon closed the connection";
  Buffer.add_subbytes c.buf chunk 0 n;
  let data = Buffer.contents c.buf in
  match String.rindex_opt data '\n' with
  | None -> []
  | Some last ->
      Buffer.clear c.buf;
      Buffer.add_string c.buf (String.sub data (last + 1) (String.length data - last - 1));
      String.split_on_char '\n' (String.sub data 0 last)

let connect socket =
  let deadline = Proc.now_s () +. 120.0 in
  let rec go () =
    let fd = Unix.socket ~cloexec:true Unix.PF_UNIX Unix.SOCK_STREAM 0 in
    match Unix.connect fd (Unix.ADDR_UNIX socket) with
    | () ->
        Unix.setsockopt_float fd Unix.SO_RCVTIMEO 60.0;
        { fd; buf = Buffer.create 4096 }
    | exception Unix.Unix_error ((Unix.ENOENT | Unix.ECONNREFUSED), _, _)
      when Proc.now_s () < deadline ->
        Unix.close fd;
        Unix.sleepf 0.005;
        go ()
  in
  go ()

let rec read_reply c = match read_lines c with [] -> read_reply c | reply :: _ -> reply

let call c line =
  write_all c.fd (line ^ "\n");
  read_reply c

let op c name =
  match J.of_string (call c (J.to_string (J.Obj [ ("op", J.Str name) ]))) with
  | Ok v when J.member "status" v = Some (J.Str "ok") -> v
  | Ok v -> failwith (Printf.sprintf "%s: %s" name (J.to_string v))
  | Error msg -> failwith (Printf.sprintf "%s: %s" name msg)

let shutdown pid c =
  ignore (op c "shutdown");
  Unix.close c.fd;
  ignore (Unix.waitpid [] pid);
  daemons := List.filter (( <> ) pid) !daemons

(* ---- payloads ------------------------------------------------------------- *)

let stable_fields =
  [
    "targets"; "detector"; "engine"; "slice_nodes"; "slice_targets"; "iterations"; "outcome";
    "final_nodes"; "candidates"; "located_bugs";
  ]

(* The reply fields that depend only on the query: everything but the
   id, the cached/coalesced flags and the timing. *)
let payload v =
  J.to_string
    (J.Obj (List.map (fun k -> (k, Option.value ~default:J.Null (J.member k v))) stable_fields))

(* The payload an in-process [Pipeline.run] on the loaded snapshot gives
   for [key], with the query defaults the daemon documents. *)
let reference (snap : Snapshot.t) =
  let mg = snap.Snapshot.mg in
  let keep_module =
    match snap.Snapshot.keep_modules with None -> fun _ -> true | Some ms -> fun m -> List.mem m ms
  in
  let detect = Core.Detector.reachability mg ~bug_nodes:snap.Snapshot.bug_nodes in
  fun (key : Keystream.key) ->
    let pipe =
      Core.Pipeline.run ~keep_module ~min_cluster:4 ~m_sample:key.Keystream.m_sample
        ~min_community:3 ~max_iterations:10 ~stop_size:30
        ~partitioner:Core.Refine.Modularity_greedy ~engine:`Masked ~frozen:snap.Snapshot.frozen
        mg ~outputs:key.Keystream.targets ~detect
    in
    let result = pipe.Core.Pipeline.result in
    J.to_string
      (J.Obj
         [
           ("targets", J.Arr (List.map (fun t -> J.Str t) key.Keystream.targets));
           ("detector", J.Str detector);
           ("engine", J.Str "masked");
           ("slice_nodes", J.num (List.length pipe.Core.Pipeline.slice.Core.Slice.nodes));
           ("slice_targets", J.num (List.length pipe.Core.Pipeline.slice.Core.Slice.targets));
           ("iterations", J.num (List.length result.Core.Refine.iterations));
           ("outcome", J.Str (Core.Refine.outcome_string result.Core.Refine.outcome));
           ("final_nodes", J.num (List.length result.Core.Refine.final_nodes));
           ( "candidates",
             J.Arr
               (List.map
                  (fun (name, m, sub, line) ->
                    J.Obj
                      [
                        ("name", J.Str name);
                        ("module", J.Str m);
                        ("subprogram", J.Str sub);
                        ("line", J.num line);
                      ])
                  (Core.Pipeline.candidates mg pipe)) );
           ( "located_bugs",
             J.Arr
               (List.map
                  (fun id -> J.Str (MG.node mg id).MG.unique)
                  (Core.Pipeline.located_bugs mg pipe ~bug_nodes:snap.Snapshot.bug_nodes)) );
         ])

(* ---- closed-loop load ----------------------------------------------------- *)

type phase = {
  mutable cold : float list;  (* ms, client-side round trip *)
  mutable warm : float list;
  mutable replies : int;
  mutable reply_bytes : int;
  mutable cold_elapsed : float list;  (* the daemon's own elapsed_ms *)
  mutable decode_ms : float list;
  mutable encode_ms : float list;
  mutable cold_sizes : (float * float * float) list;  (* slice, iterations, final *)
  mutable duration : float;
  by_index : (int, string) Hashtbl.t;  (* request index -> payload, traced phases *)
}

let new_phase () =
  {
    cold = [];
    warm = [];
    replies = 0;
    reply_bytes = 0;
    cold_elapsed = [];
    decode_ms = [];
    encode_ms = [];
    cold_sizes = [];
    duration = 0.0;
    by_index = Hashtbl.create 1024;
  }

let request_line ~index (key : Keystream.key) =
  J.to_string
    (J.Obj
       [
         ("op", J.Str "query");
         ("id", J.num index);
         ("targets", J.Arr (List.map (fun t -> J.Str t) key.Keystream.targets));
         ("detector", J.Str detector);
         ("m_sample", J.num key.Keystream.m_sample);
       ])

let num_field v name = match J.member name v with Some (J.Num f) -> f | _ -> Float.nan

(* An ok reply to request [index]: its cached flag, its payload and the
   decoded reply; [None] for anything else. *)
type reply = { cached : bool; payload : string; decoded : J.t }

let decode_reply ~index line =
  match J.of_string line with
  | Ok v when J.member "status" v = Some (J.Str "ok") && num_field v "id" = float_of_int index ->
      Some { cached = J.member "cached" v = Some (J.Bool true); payload = payload v; decoded = v }
  | Ok _ | Error _ -> None

(* Drive [conn] in a closed loop until [stop index elapsed] says no more
   requests: each request is sent when the previous reply has arrived.
   [payloads] maps each key to the first payload seen for it; every later
   reply for that key must repeat it.  [cold_keys] collects the keys the
   daemon computed.  [timed_codec] times the decode of every reply and a
   re-encode of it; [keep_payloads] keeps each request's payload for a
   digest of the phase. *)
let run_phase ~tally ~timed_codec ~keep_payloads ~conn ~stream ~universe ~stop ~payloads
    ~cold_keys =
  let ph = new_phase () in
  let t_start = Proc.now_s () in
  let index = ref 0 in
  while not (stop !index (Proc.now_s () -. t_start)) do
    let key = universe.(Keystream.next stream) in
    let request = request_line ~index:!index key in
    let sent = Proc.now_s () in
    let line = call conn request in
    let ms = 1e3 *. (Proc.now_s () -. sent) in
    let t0 = Proc.now_s () in
    let r = decode_reply ~index:!index line in
    if timed_codec then
      Option.iter
        (fun { decoded; _ } ->
          let t1 = Proc.now_s () in
          ignore (J.to_string decoded);
          ph.decode_ms <- 1e3 *. (t1 -. t0) :: ph.decode_ms;
          ph.encode_ms <- 1e3 *. (Proc.now_s () -. t1) :: ph.encode_ms)
        r;
    let ok =
      match r with
      | None -> false
      | Some r ->
          if r.cached then ph.warm <- ms :: ph.warm
          else begin
            ph.cold <- ms :: ph.cold;
            Hashtbl.replace cold_keys key ();
            let size name = num_field r.decoded name in
            ph.cold_elapsed <- size "elapsed_ms" :: ph.cold_elapsed;
            ph.cold_sizes <-
              (size "slice_nodes", size "iterations", size "final_nodes") :: ph.cold_sizes
          end;
          ph.replies <- ph.replies + 1;
          ph.reply_bytes <- ph.reply_bytes + String.length line + 1;
          if keep_payloads then Hashtbl.replace ph.by_index !index r.payload;
          (match Hashtbl.find_opt payloads key with
          | None ->
              Hashtbl.replace payloads key r.payload;
              true
          | Some first -> first = r.payload)
    in
    Outcome.record tally
      ~what:
        (Printf.sprintf "serve-small: request %d: %s" !index
           (String.sub line 0 (min 200 (String.length line))))
      ok;
    incr index
  done;
  ph.duration <- Proc.now_s () -. t_start;
  ph

(* Cold keys checked against in-process pipelines, after the load so the
   check does not compete for cores. *)
let check_cold_keys ~tally ~seed snap ~payloads ~cold_keys =
  let ref_of = reference snap in
  Hashtbl.iter
    (fun (key : Keystream.key) () ->
      let served = Hashtbl.find_opt payloads key in
      Outcome.record tally
        ~what:
          (Printf.sprintf
             "serve-small seed %d: payload of [%s] m_sample %d differs from Pipeline.run" seed
             (String.concat "," key.Keystream.targets)
             key.Keystream.m_sample)
        (served = Some (ref_of key)))
    cold_keys

let labels (snap : Snapshot.t) =
  List.filter_map
    (fun e ->
      let o = e.Rca_synth.Outputs.output in
      if Hashtbl.mem snap.Snapshot.mg.MG.io_map o then Some o else None)
    Rca_synth.Outputs.catalogue

let load_shape () =
  J.Obj
    [
      ("loop", J.Str "closed");
      ("connections", J.num 1);  (* why one: WORKLOADS.md, "Load shape" *)
      ("threads", J.num 1);
      ("cache_capacity", J.num cache_capacity);
      ("key_universe", J.num universe_size);
      ("zipf_s", J.Num zipf_s);
      ("detector", J.Str detector);
    ]

let summary_json (s : Summary.t) =
  J.Obj
    [
      ("count", J.num s.Summary.count);
      ("p50", J.Num s.Summary.p50);
      ("p90", Option.fold ~none:J.Null ~some:(fun x -> J.Num x) s.Summary.p90);
      ("beyond_p90", J.num (Summary.beyond ~n:s.Summary.count 0.9));
    ]

let workdir () =
  let dir = Printf.sprintf "perfbench_out/tmp-%d" (Unix.getpid ()) in
  if not (Sys.file_exists dir) then Unix.mkdir dir 0o700;
  dir

let remove_tree dir =
  Array.iter (fun f -> Sys.remove (Filename.concat dir f)) (Sys.readdir dir);
  Unix.rmdir dir

(* The key catalogue and its popularity order are part of the workload;
   the seed draws the request sequence over them. *)
let universe_seed = 0x6b657973

let stream_for seed snap =
  let universe = Keystream.universe ~seed:universe_seed ~labels:(labels snap) ~size:universe_size in
  (universe, Keystream.stream ~seed:(Seeds.serve_draws seed) ~s:zipf_s universe_size)

let mean = function [] -> 0.0 | xs -> List.fold_left ( +. ) 0.0 xs /. float_of_int (List.length xs)

let untraced ~seed ~seconds : Outcome.t =
  let dir = workdir () in
  let cfg = config seed in
  (* Three full set-ups; the last one's daemon serves the load. *)
  let setups =
    List.init 3 (fun i ->
        let t0 = Proc.now_s () in
        let snapshot = Printf.sprintf "%s/model-%d.rcasnap" dir i in
        let socket = Printf.sprintf "%s/d%d.sock" dir i in
        Snapshot.save snapshot (build ~traced:false cfg);
        let pid = spawn_daemon ~snapshot ~socket ~summary:"-" in
        let c = connect socket in
        ignore (op c "ping");
        (Proc.now_s () -. t0, snapshot, socket, pid, c))
  in
  List.iteri (fun i (_, _, _, pid, c) -> if i < 2 then shutdown pid c) setups;
  let _, snapshot, _, pid, conn = List.nth setups 2 in
  let snap =
    match Snapshot.load snapshot with Ok s -> s | Error msg -> failwith ("snapshot load: " ^ msg)
  in
  let universe, stream = stream_for seed snap in
  let tally = Outcome.tally () in
  let payloads = Hashtbl.create 1024 and cold_keys = Hashtbl.create 1024 in
  let ph =
    run_phase ~tally ~timed_codec:false ~keep_payloads:false ~conn ~stream ~universe
      ~stop:(fun _ elapsed -> elapsed >= seconds)
      ~payloads ~cold_keys
  in
  let stats = op conn "stats" in
  let rss = Proc.peak_rss_mb pid in
  shutdown pid conn;
  check_cold_keys ~tally ~seed snap ~payloads ~cold_keys;
  remove_tree dir;
  let cold = Summary.of_samples ph.cold and warm = Summary.of_samples ph.warm in
  {
    Outcome.attempted = tally.Outcome.ops;
    failed = tally.Outcome.bad;
    checks =
      [
        Outcome.check "some replies were cold and some warm"
          (cold.Summary.count > 0 && warm.Summary.count > 0);
      ];
    metrics =
      [
        ("setup_s", Summary.median (List.map (fun (t, _, _, _, _) -> t) setups));
        ("rca_ms_p50", cold.Summary.p50);
        ("throughput_per_s", float_of_int ph.replies /. ph.duration);
        ("peak_rss_mb", rss);
      ];
    info =
      [
        ("cold_ms", summary_json cold);
        ("warm_ms", summary_json warm);
        ("replies", J.num ph.replies);
        ("distinct_cold_keys_checked", J.num (Hashtbl.length cold_keys));
        ("daemon_stats", stats);
        ("load", load_shape ());
        ("setup_samples", J.num (List.length setups));
      ];
  }

let traced ~seed ~trace_path : Outcome.t =
  let dir = workdir () in
  let cfg = config seed in
  Rca_obs.Obs.enable ();
  Probe.reset ();
  let snapshot = dir ^ "/model.rcasnap" in
  let built = build ~traced:true cfg in
  Probe.call "serve.snapshot_save" (fun () -> Snapshot.save snapshot built);
  Probe.set "serve.snapshot_bytes" (float_of_int (Unix.stat snapshot).Unix.st_size);
  let snap =
    match Probe.call "serve.snapshot_load" (fun () -> Snapshot.load snapshot) with
    | Ok s -> s
    | Error msg -> failwith ("snapshot load: " ^ msg)
  in
  let tally = Outcome.tally () in
  let payloads = Hashtbl.create 1024 and cold_keys = Hashtbl.create 1024 in
  (* The same request prefix against an untraced and a traced daemon. *)
  let run_daemon ~summary ~timed_codec =
    let socket = Printf.sprintf "%s/d-%s.sock" dir (if summary = "-" then "plain" else "traced") in
    let pid = spawn_daemon ~snapshot ~socket ~summary in
    let conn = connect socket in
    ignore (op conn "ping");
    let universe, stream = stream_for seed snap in
    let ph =
      run_phase ~tally ~timed_codec ~keep_payloads:true ~conn ~stream ~universe
        ~stop:(fun index _ -> index >= traced_requests)
        ~payloads ~cold_keys
    in
    let stats = op conn "stats" in
    shutdown pid conn;
    (ph, stats)
  in
  let plain, _ = run_daemon ~summary:"-" ~timed_codec:false in
  let summary = Filename.remove_extension trace_path ^ "-daemon.json" in
  let traced, stats = run_daemon ~summary ~timed_codec:true in
  Rca_obs.Obs.disable ();
  (match J.of_string (Provenance.read_file summary) with
  | Ok v -> Layers.import_summary v
  | Error msg -> failwith ("daemon summary: " ^ msg));
  check_cold_keys ~tally ~seed snap ~payloads ~cold_keys;
  remove_tree dir;
  let digest ph =
    List.init traced_requests (fun i ->
        Option.value ~default:"" (Hashtbl.find_opt ph.by_index i))
    |> String.concat "\n" |> Digest.string |> Digest.to_hex
  in
  let cold = Summary.of_samples traced.cold and warm = Summary.of_samples traced.warm in
  let stat name = num_field stats name in
  let p90 (s : Summary.t) = Option.value ~default:0.0 s.Summary.p90 in
  List.iter
    (fun (name, v) -> Probe.set name v)
    [
      ("serve.compute_ms", mean traced.cold_elapsed);
      ( "serve.cache_hit_ratio",
        stat "cache_hits" /. Float.max 1.0 (stat "cache_hits" +. stat "cache_misses") );
      ("serve.coalesced", stat "coalesced");
      ("serve.inline_runs", stat "inline_runs");
      ("serve.reply_bytes", float_of_int traced.reply_bytes /. float_of_int (max 1 traced.replies));
      ("serve.json_decode_ms", mean traced.decode_ms);
      ("serve.json_encode_ms", mean traced.encode_ms);
      ("serve.cold_ms_p50", cold.Summary.p50);
      ("serve.cold_ms_p90", p90 cold);
      ("serve.warm_ms_p50", warm.Summary.p50);
      ("serve.warm_ms_p90", p90 warm);
      ("core.slice_nodes", mean (List.map (fun (s, _, _) -> s) traced.cold_sizes));
      ("core.refine_iterations", mean (List.map (fun (_, i, _) -> i) traced.cold_sizes));
      ("core.final_nodes", mean (List.map (fun (_, _, f) -> f) traced.cold_sizes));
      ("obs.overhead_pct", 100.0 *. (traced.duration -. plain.duration) /. plain.duration);
    ];
  Rca_obs.Obs.write_chrome_trace trace_path;
  {
    Outcome.attempted = tally.Outcome.ops;
    failed = tally.Outcome.bad;
    checks =
      [
        Outcome.check "traced daemon answers the untraced daemon's payloads"
          (digest plain = digest traced);
        Outcome.check "both daemons answered every request"
          (plain.replies = traced_requests && traced.replies = traced_requests);
      ];
    metrics = Layers.per_layer_metrics ();
    info =
      [
        ("payload_digest", J.Str (digest traced));
        ("cold_ms", summary_json cold);
        ("warm_ms", summary_json warm);
        ("untraced_s", J.Num plain.duration);
        ("traced_s", J.Num traced.duration);
        ("daemon_stats", stats);
        ("load", load_shape ());
        ("trace", J.Str trace_path);
        ("daemon_summary", J.Str summary);
      ];
  }
