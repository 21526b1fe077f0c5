(* The RCA query daemon: one immutable compiled model (a loaded
   {!Snapshot.t}), served over a line-delimited JSON protocol on a Unix
   or TCP socket.

   One request line -> one response line.  Ops:

     {"op":"query","id":7,"targets":["TREFHT"],"detector":"gn",
      "engine":"masked","gn_approx":128}     -> full pipeline answer
     {"op":"ping"}                           -> liveness + fingerprint
     {"op":"stats"}                          -> counters
     {"op":"shutdown"}                       -> ack, then the loop exits

   Concurrency: the socket loop is a [Unix.select] reactor that only
   ever parses, dispatches and writes — query compute runs on a bounded
   {!Rca_graph.Pool.Workqueue} of dedicated worker domains, so a slow
   cold query never stalls the other clients.  Responses therefore
   complete out of order; clients match them to requests by the echoed
   [id].  Workers hand finished answers back through a mutex-guarded
   completion queue and wake the reactor with a self-pipe byte.
   Intra-query parallelism still comes from the shared domain pool
   ([~domains]); the pool runs one batch at a time, so workers take it
   under a try-lock and fall back to sequential compute when it is busy
   — the pool's determinism contract makes both paths bitwise
   identical.  Per-request ["domains"] fields are accepted and ignored
   so clients can reuse experiment configs verbatim.

   Caching and coalescing: answers land in an LRU keyed by the
   canonical request (sorted-deduped targets + detector + engine +
   every result-affecting parameter).  A request whose key is already
   computing attaches to the in-flight job instead of recomputing —
   those replies are flagged ["coalesced"] so the traffic generator can
   observe stampede suppression directly.  With [~cache_path] the LRU
   also persists to a checksummed sidecar file ({!Cache}): loaded at
   startup (so a restarted daemon answers warm), saved on graceful
   shutdown and every [~cache_save_every] seconds, and stamped with
   {!Snapshot.checksum} so a recompiled model invalidates it.

   Per-request failures (garbage bytes, unknown ops, bad targets, an
   exception out of the pipeline) become {"status":"error"} replies and
   an [errors] tick; the daemon itself never dies on request input. *)

module G = Rca_graph
module MG = Rca_metagraph.Metagraph
module Core = Rca_core
module J = Jsonio

type addr = [ `Unix of string | `Tcp of int ]

type stats = {
  mutable served : int;  (* successful replies, all ops *)
  mutable errors : int;  (* error replies *)
  mutable cache_hits : int;
  mutable cache_misses : int;
  mutable coalesced : int;  (* requests attached to an in-flight job *)
  mutable inline_runs : int;  (* computed on the reactor: queue full or no workers *)
  mutable warm_entries : int;  (* entries reloaded from the persisted sidecar *)
  mutable cache_saves : int;  (* sidecar writes *)
}

type conn = {
  fd : Unix.file_descr;
  mutable pending : string;  (* bytes read but not yet terminated by \n *)
  mutable out : string;  (* reply bytes accepted but not yet written *)
  mutable alive : bool;
}

(* One request waiting on an in-flight computation. *)
type waiter = { w_conn : conn; w_id : J.t; w_t0 : int64; w_coalesced : bool }

type job = { j_key : string; mutable j_waiters : waiter list (* newest first *) }

type state = {
  snap : Snapshot.t;
  detect : Core.Detector.t;  (* reachability, precomputed once *)
  keep_module : string -> bool;
  pool : G.Pool.t option;
  pool_gate : Mutex.t;  (* the batch pool serves one query at a time *)
  wq : G.Pool.Workqueue.wq option;  (* None: compute inline on the reactor *)
  mutable cache : (string, Cache.answer) Lru.t;
  in_flight : (string, job) Hashtbl.t;
  completions : (string * (Cache.answer, string) result) Queue.t;
  comp_m : Mutex.t;
  notify_r : Unix.file_descr;  (* self-pipe: workers wake the reactor *)
  notify_w : Unix.file_descr;
  stats : stats;
  start_ns : int64;
  cache_path : string option;
  snap_checksum : int64 Lazy.t;
  mutable dirty : bool;  (* cache changed since the last sidecar save *)
  mutable running : bool;
}

let ms_since t0 = Int64.to_float (Int64.sub (Rca_obs.Obs.monotonic_ns ()) t0) /. 1e6

(* --- request decoding ------------------------------------------------------ *)

exception Bad_request of string

let field_string name default v =
  match J.member name v with
  | None -> default
  | Some f -> (
      match J.string_opt f with
      | Some s -> s
      | None -> raise (Bad_request (Printf.sprintf "field %S must be a string" name)))

let field_int name default v =
  match J.member name v with
  | None -> default
  | Some f -> (
      match J.int_opt f with
      | Some i -> i
      | None -> raise (Bad_request (Printf.sprintf "field %S must be an integer" name)))

let field_int_opt name v =
  match J.member name v with
  | None -> None
  | Some J.Null -> None
  | Some f -> (
      match J.int_opt f with
      | Some i -> Some i
      | None -> raise (Bad_request (Printf.sprintf "field %S must be an integer" name)))

let field_string_list name v =
  match J.member name v with
  | None -> []
  | Some f -> (
      match J.list_opt f with
      | None -> raise (Bad_request (Printf.sprintf "field %S must be an array" name))
      | Some items ->
          List.map
            (fun item ->
              match J.string_opt item with
              | Some s -> s
              | None ->
                  raise (Bad_request (Printf.sprintf "field %S must contain strings" name)))
            items)

type query = {
  q_targets : string list;  (* canonical: sorted, deduped, defaulted *)
  q_detector : Core.Refine.partitioner;
  q_detector_name : string;
  q_engine : Core.Refine.engine;
  q_m_sample : int;
  q_min_community : int;
  q_max_iterations : int;
  q_stop_size : int;
  q_gn_approx : int option;
  q_min_cluster : int;
}

(* Defaults mirror [Pipeline.run]/[Refine.refine] exactly, so a bare
   {"op":"query"} answers what a default single-shot run would. *)
let decode_query st v =
  let raw_targets = field_string_list "targets" v in
  let targets =
    match List.sort_uniq compare raw_targets with
    | [] -> List.sort_uniq compare st.snap.Snapshot.default_targets
    | ts -> ts
  in
  if targets = [] then
    raise (Bad_request "no targets given and the snapshot has no default targets");
  List.iter
    (fun t ->
      if not (Hashtbl.mem st.snap.Snapshot.mg.MG.io_map t) then
        raise (Bad_request (Printf.sprintf "unknown target %S (not an output label)" t)))
    targets;
  let detector_name = field_string "detector" "gn" v in
  let detector =
    match Core.Refine.partitioner_of_string detector_name with
    | Some p -> p
    | None ->
        raise
          (Bad_request
             (Printf.sprintf "unknown detector %S (%s)" detector_name
                Core.Refine.partitioner_names))
  in
  let engine =
    match field_string "engine" "masked" v with
    | "masked" -> `Masked
    | "list" -> `List
    | other -> raise (Bad_request (Printf.sprintf "unknown engine %S (masked|list)" other))
  in
  {
    q_targets = targets;
    q_detector = detector;
    q_detector_name = Core.Refine.partitioner_string detector;
    q_engine = engine;
    q_m_sample = field_int "m_sample" 10 v;
    q_min_community = field_int "min_community" 3 v;
    q_max_iterations = field_int "max_iterations" 10 v;
    q_stop_size = field_int "stop_size" 30 v;
    q_gn_approx = field_int_opt "gn_approx" v;
    q_min_cluster = field_int "min_cluster" 4 v;
  }

let cache_key q =
  String.concat "\x1f" q.q_targets
  ^ Printf.sprintf "\x00%s\x00%s\x00m%d c%d i%d s%d g%s k%d" q.q_detector_name
      (Core.Refine.engine_string q.q_engine)
      q.q_m_sample q.q_min_community q.q_max_iterations q.q_stop_size
      (match q.q_gn_approx with None -> "-" | Some g -> string_of_int g)
      q.q_min_cluster

(* --- query evaluation ------------------------------------------------------ *)

let compute ?pool st q =
  let snap = st.snap in
  let mg = snap.Snapshot.mg in
  let pipeline =
    Core.Pipeline.run ~keep_module:st.keep_module ~min_cluster:q.q_min_cluster
      ~m_sample:q.q_m_sample ~min_community:q.q_min_community
      ~max_iterations:q.q_max_iterations ~stop_size:q.q_stop_size
      ?gn_approx:q.q_gn_approx ~partitioner:q.q_detector ?pool ~engine:q.q_engine
      ~frozen:snap.Snapshot.frozen mg ~outputs:q.q_targets ~detect:st.detect
  in
  let result = pipeline.Core.Pipeline.result in
  let located =
    Core.Pipeline.located_bugs mg pipeline ~bug_nodes:snap.Snapshot.bug_nodes
    |> List.map (fun id -> (MG.node mg id).MG.unique)
  in
  {
    Cache.a_targets = q.q_targets;
    a_detector = q.q_detector_name;
    a_engine = Core.Refine.engine_string q.q_engine;
    a_slice_nodes = List.length pipeline.Core.Pipeline.slice.Core.Slice.nodes;
    a_slice_targets = List.length pipeline.Core.Pipeline.slice.Core.Slice.targets;
    a_iterations = List.length result.Core.Refine.iterations;
    a_outcome = Core.Refine.outcome_string result.Core.Refine.outcome;
    a_final_nodes = List.length result.Core.Refine.final_nodes;
    a_candidates = Core.Pipeline.candidates mg pipeline;
    a_located = located;
  }

(* Evaluate one decoded query to a result.  Runs on a worker domain or
   (fallback) the reactor; never raises.  The shared batch pool is
   taken under a try-lock — when another query holds it we compute
   sequentially, which the pool's determinism contract makes bitwise
   identical. *)
let eval st q =
  match
    Rca_obs.Obs.span "serve.compute" (fun () ->
        match st.pool with
        | None -> compute st q
        | Some p ->
            if Mutex.try_lock st.pool_gate then
              Fun.protect
                ~finally:(fun () -> Mutex.unlock st.pool_gate)
                (fun () -> compute ~pool:p st q)
            else compute st q)
  with
  | a -> Ok a
  | exception (Invalid_argument msg | Failure msg) ->
      Error (Printf.sprintf "query failed: %s" msg)
  | exception e -> Error (Printf.sprintf "query failed: %s" (Printexc.to_string e))

(* Worker side of a job: compute, publish, wake the reactor. *)
let run_task st key q () =
  let result = eval st q in
  Mutex.lock st.comp_m;
  Queue.push (key, result) st.completions;
  Mutex.unlock st.comp_m;
  (* one byte on the self-pipe; EAGAIN means a wakeup is already pending *)
  try ignore (Unix.write st.notify_w (Bytes.make 1 '!') 0 1) with Unix.Unix_error _ -> ()

(* --- responses ------------------------------------------------------------- *)

let answer_json ~id ~cached ~coalesced ~elapsed_ms (a : Cache.answer) =
  let open Cache in
  J.Obj
    [
      ("id", id);
      ("status", J.Str "ok");
      ("cached", J.Bool cached);
      ("coalesced", J.Bool coalesced);
      ("targets", J.Arr (List.map (fun t -> J.Str t) a.a_targets));
      ("detector", J.Str a.a_detector);
      ("engine", J.Str a.a_engine);
      ("slice_nodes", J.num a.a_slice_nodes);
      ("slice_targets", J.num a.a_slice_targets);
      ("iterations", J.num a.a_iterations);
      ("outcome", J.Str a.a_outcome);
      ("final_nodes", J.num a.a_final_nodes);
      ( "candidates",
        J.Arr
          (List.map
             (fun (name, module_, sub, line) ->
               J.Obj
                 [
                   ("name", J.Str name);
                   ("module", J.Str module_);
                   ("subprogram", J.Str sub);
                   ("line", J.num line);
                 ])
             a.a_candidates) );
      ("located_bugs", J.Arr (List.map (fun n -> J.Str n) a.a_located));
      ("elapsed_ms", J.Num elapsed_ms);
    ]

let error_json ~id msg = J.Obj [ ("id", id); ("status", J.Str "error"); ("error", J.Str msg) ]

let enqueue_reply conn v = if conn.alive then conn.out <- conn.out ^ J.to_string v ^ "\n"

(* Deliver one finished computation to everyone waiting on its key and
   publish it to the LRU.  Runs on the reactor only. *)
let complete st key result =
  match Hashtbl.find_opt st.in_flight key with
  | None -> ()
  | Some job ->
      Hashtbl.remove st.in_flight key;
      (match result with
      | Ok a ->
          Lru.add st.cache key a;
          st.dirty <- true
      | Error _ -> ());
      List.iter
        (fun w ->
          match result with
          | Ok a ->
              st.stats.served <- st.stats.served + 1;
              enqueue_reply w.w_conn
                (answer_json ~id:w.w_id ~cached:false ~coalesced:w.w_coalesced
                   ~elapsed_ms:(ms_since w.w_t0) a)
          | Error msg ->
              st.stats.errors <- st.stats.errors + 1;
              enqueue_reply w.w_conn (error_json ~id:w.w_id msg))
        (List.rev job.j_waiters)

let process_completions st =
  let batch = ref [] in
  Mutex.lock st.comp_m;
  while not (Queue.is_empty st.completions) do
    batch := Queue.pop st.completions :: !batch
  done;
  Mutex.unlock st.comp_m;
  List.iter (fun (key, result) -> complete st key result) (List.rev !batch)

(* A query either answers from the LRU, attaches to the in-flight job
   for its key, or becomes a new job on the work queue (computed inline
   when the queue is full or the daemon runs without workers). *)
let handle_query st conn id v =
  let t0 = Rca_obs.Obs.monotonic_ns () in
  match decode_query st v with
  | exception Bad_request msg ->
      st.stats.errors <- st.stats.errors + 1;
      enqueue_reply conn (error_json ~id msg)
  | q -> (
      let key = cache_key q in
      match Lru.find st.cache key with
      | Some a ->
          st.stats.cache_hits <- st.stats.cache_hits + 1;
          st.stats.served <- st.stats.served + 1;
          Rca_obs.Obs.incr "serve.cache_hit";
          enqueue_reply conn
            (answer_json ~id ~cached:true ~coalesced:false ~elapsed_ms:(ms_since t0) a)
      | None -> (
          let w = { w_conn = conn; w_id = id; w_t0 = t0; w_coalesced = false } in
          match Hashtbl.find_opt st.in_flight key with
          | Some job ->
              (* stampede member: share the running computation *)
              st.stats.cache_hits <- st.stats.cache_hits + 1;
              st.stats.coalesced <- st.stats.coalesced + 1;
              Rca_obs.Obs.incr "serve.cache_hit";
              job.j_waiters <- { w with w_coalesced = true } :: job.j_waiters
          | None ->
              st.stats.cache_misses <- st.stats.cache_misses + 1;
              Rca_obs.Obs.incr "serve.cache_miss";
              Hashtbl.replace st.in_flight key { j_key = key; j_waiters = [ w ] };
              let submitted =
                match st.wq with
                | Some wq -> G.Pool.Workqueue.submit wq (run_task st key q)
                | None -> false
              in
              if not submitted then begin
                st.stats.inline_runs <- st.stats.inline_runs + 1;
                complete st key (eval st q)
              end))

(* Evaluate one parsed request.  Never raises; replies land in the
   connection's out buffer (queries possibly much later, via a job). *)
let respond st conn v =
  let id = Option.value ~default:J.Null (J.member "id" v) in
  match field_string "op" "query" v with
  | "ping" ->
      st.stats.served <- st.stats.served + 1;
      enqueue_reply conn
        (J.Obj
           [
             ("id", id);
             ("status", J.Str "ok");
             ("op", J.Str "ping");
             ("fingerprint", J.Str st.snap.Snapshot.fingerprint);
             ("scale", J.Str st.snap.Snapshot.scale);
             ("experiment", J.Str st.snap.Snapshot.experiment);
             ("nodes", J.num (MG.n_nodes st.snap.Snapshot.mg));
           ])
  | "stats" ->
      st.stats.served <- st.stats.served + 1;
      enqueue_reply conn
        (J.Obj
           [
             ("id", id);
             ("status", J.Str "ok");
             ("op", J.Str "stats");
             ("served", J.num st.stats.served);
             ("errors", J.num st.stats.errors);
             ("cache_hits", J.num st.stats.cache_hits);
             ("cache_misses", J.num st.stats.cache_misses);
             ("coalesced", J.num st.stats.coalesced);
             ("inline_runs", J.num st.stats.inline_runs);
             ("warm_entries", J.num st.stats.warm_entries);
             ("cache_saves", J.num st.stats.cache_saves);
             ("in_flight", J.num (Hashtbl.length st.in_flight));
             ( "queued",
               J.num
                 (match st.wq with Some wq -> G.Pool.Workqueue.pending wq | None -> 0) );
             ("cache_entries", J.num (Lru.length st.cache));
             ("cache_capacity", J.num (Lru.capacity st.cache));
             ("uptime_ms", J.Num (ms_since st.start_ns));
           ])
  | "shutdown" ->
      st.stats.served <- st.stats.served + 1;
      st.running <- false;
      enqueue_reply conn (J.Obj [ ("id", id); ("status", J.Str "ok"); ("op", J.Str "shutdown") ])
  | "query" -> handle_query st conn id v
  | other ->
      st.stats.errors <- st.stats.errors + 1;
      enqueue_reply conn (error_json ~id (Printf.sprintf "unknown op %S" other))

let respond_line st conn line =
  match J.of_string line with
  | Error msg ->
      st.stats.errors <- st.stats.errors + 1;
      enqueue_reply conn (error_json ~id:J.Null (Printf.sprintf "bad request line: %s" msg))
  | Ok v -> (
      match respond st conn v with
      | () -> ()
      | exception Bad_request msg ->
          st.stats.errors <- st.stats.errors + 1;
          enqueue_reply conn (error_json ~id:J.Null msg))

(* --- cache persistence ----------------------------------------------------- *)

let save_cache st =
  match st.cache_path with
  | Some path when st.dirty -> (
      match
        Cache.save path ~snapshot_checksum:(Lazy.force st.snap_checksum) st.cache
      with
      | () ->
          st.dirty <- false;
          st.stats.cache_saves <- st.stats.cache_saves + 1
      | exception (Sys_error _ | Unix.Unix_error _) -> ())
  | _ -> ()

(* --- the reactor ----------------------------------------------------------- *)

let listener_of addr =
  match addr with
  | `Unix path ->
      if Sys.file_exists path then Unix.unlink path;
      let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
      Unix.bind fd (Unix.ADDR_UNIX path);
      Unix.listen fd 64;
      Unix.set_nonblock fd;
      fd
  | `Tcp port ->
      let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
      Unix.setsockopt fd Unix.SO_REUSEADDR true;
      Unix.bind fd (Unix.ADDR_INET (Unix.inet_addr_loopback, port));
      Unix.listen fd 64;
      Unix.set_nonblock fd;
      fd

(* Write as much of a connection's out buffer as the socket accepts
   right now; the select loop retries the rest when it turns writable. *)
let flush_out conn =
  if conn.alive && conn.out <> "" then begin
    let b = Bytes.of_string conn.out in
    match Unix.write conn.fd b 0 (Bytes.length b) with
    | k -> conn.out <- String.sub conn.out k (String.length conn.out - k)
    | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.EINTR), _, _) -> ()
    | exception (Unix.Unix_error _ | Sys_error _) -> conn.alive <- false
  end

(* Split every complete line out of a connection's buffer. *)
let drain_lines conn =
  let rec go acc =
    match String.index_opt conn.pending '\n' with
    | None -> List.rev acc
    | Some i ->
        let line = String.sub conn.pending 0 i in
        conn.pending <-
          String.sub conn.pending (i + 1) (String.length conn.pending - i - 1);
        go (line :: acc)
  in
  go []

let drain_notify st =
  let b = Bytes.create 64 in
  let rec go () =
    match Unix.read st.notify_r b 0 64 with
    | 0 -> ()
    | _ -> go ()
    | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) -> ()
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> go ()
  in
  go ()

let read_chunk_size = 65536

let serve_loop ?cache_save_every st listener =
  let conns = ref [] in
  let buf = Bytes.create read_chunk_size in
  let next_save =
    ref (match cache_save_every with None -> None | Some s -> Some (Unix.gettimeofday () +. s))
  in
  while st.running do
    let rfds = st.notify_r :: listener :: List.map (fun c -> c.fd) !conns in
    let wfds = List.filter_map (fun c -> if c.out <> "" then Some c.fd else None) !conns in
    let timeout =
      match !next_save with
      | None -> -1.0
      | Some t -> max 0.0 (t -. Unix.gettimeofday ())
    in
    (match Unix.select rfds wfds [] timeout with
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
    | readable, writable, _ ->
        if List.mem st.notify_r readable then drain_notify st;
        (* finished jobs first: their replies join this round's writes *)
        process_completions st;
        if List.mem listener readable then begin
          (* drain every pending connection (the listener is
             non-blocking) so a simultaneous burst of clients lands in
             the same batch and can coalesce *)
          let rec accept_all () =
            match Unix.accept listener with
            | fd, _ ->
                Unix.set_nonblock fd;
                conns := !conns @ [ { fd; pending = ""; out = ""; alive = true } ];
                accept_all ()
            | exception Unix.Unix_error ((Unix.EWOULDBLOCK | Unix.EAGAIN), _, _) -> ()
            | exception Unix.Unix_error (Unix.EINTR, _, _) -> accept_all ()
          in
          accept_all ()
        end;
        (* drain every readable connection first, then dispatch the
           whole batch in arrival order — identical requests arriving
           together coalesce on one computation *)
        let batch = ref [] in
        List.iter
          (fun conn ->
            if List.mem conn.fd readable then begin
              match Unix.read conn.fd buf 0 read_chunk_size with
              | 0 -> conn.alive <- false
              | k ->
                  conn.pending <- conn.pending ^ Bytes.sub_string buf 0 k;
                  List.iter (fun line -> batch := (conn, line) :: !batch) (drain_lines conn)
              | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.EINTR), _, _)
                -> ()
              | exception Unix.Unix_error ((Unix.ECONNRESET | Unix.EPIPE), _, _) ->
                  conn.alive <- false
            end)
          !conns;
        List.iter
          (fun (conn, line) ->
            if conn.alive && String.trim line <> "" then respond_line st conn line)
          (List.rev !batch);
        (* opportunistic flush: newly-ready replies usually fit the
           socket buffer, so most rounds never wait for writability *)
        List.iter
          (fun conn -> if List.mem conn.fd writable || conn.out <> "" then flush_out conn)
          !conns;
        conns :=
          List.filter
            (fun conn ->
              if conn.alive then true
              else begin
                (try Unix.close conn.fd with Unix.Unix_error _ -> ());
                false
              end)
            !conns);
    match !next_save with
    | Some t when Unix.gettimeofday () >= t ->
        save_cache st;
        next_save := Some (Unix.gettimeofday () +. Option.value ~default:1.0 cache_save_every)
    | _ -> ()
  done;
  (* graceful drain: the shutdown ack and every accepted query still
     get their reply before the sockets close *)
  let deadline = Unix.gettimeofday () +. 30.0 in
  while Hashtbl.length st.in_flight > 0 && Unix.gettimeofday () < deadline do
    (match Unix.select [ st.notify_r ] [] [] 0.25 with
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
    | readable, _, _ -> if readable <> [] then drain_notify st);
    process_completions st
  done;
  process_completions st;
  let flush_deadline = Unix.gettimeofday () +. 5.0 in
  while
    List.exists (fun c -> c.alive && c.out <> "") !conns
    && Unix.gettimeofday () < flush_deadline
  do
    let wfds = List.filter_map (fun c -> if c.alive && c.out <> "" then Some c.fd else None) !conns in
    (match Unix.select [] wfds [] 0.25 with
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
    | _ -> ());
    List.iter flush_out !conns
  done;
  List.iter (fun conn -> try Unix.close conn.fd with Unix.Unix_error _ -> ()) !conns

let serve ?(cache_capacity = 64) ?(domains = 1) ?(workers = 1) ?(queue_capacity = 64)
    ?cache_path ?cache_save_every ?on_ready addr snap =
  (* a client that disconnects mid-reply must cost an [alive <- false],
     not a fatal SIGPIPE *)
  (try Sys.set_signal Sys.sigpipe Sys.Signal_ignore with Invalid_argument _ -> ());
  let keep_module =
    match snap.Snapshot.keep_modules with
    | None -> fun _ -> true
    | Some ms ->
        let set = Hashtbl.create (max 16 (2 * List.length ms)) in
        List.iter (fun m -> Hashtbl.replace set m ()) ms;
        fun m -> Hashtbl.mem set m
  in
  let detect =
    Core.Detector.reachability snap.Snapshot.mg ~bug_nodes:snap.Snapshot.bug_nodes
  in
  let stats =
    {
      served = 0;
      errors = 0;
      cache_hits = 0;
      cache_misses = 0;
      coalesced = 0;
      inline_runs = 0;
      warm_entries = 0;
      cache_saves = 0;
    }
  in
  let run pool =
    let notify_r, notify_w = Unix.pipe ~cloexec:true () in
    Unix.set_nonblock notify_r;
    Unix.set_nonblock notify_w;
    let wq =
      if workers <= 0 then None
      else Some (G.Pool.Workqueue.create ~workers ~capacity:(max 1 queue_capacity) ())
    in
    let st =
      {
        snap;
        detect;
        keep_module;
        pool;
        pool_gate = Mutex.create ();
        wq;
        cache = Lru.create cache_capacity;
        in_flight = Hashtbl.create 16;
        completions = Queue.create ();
        comp_m = Mutex.create ();
        notify_r;
        notify_w;
        stats;
        start_ns = Rca_obs.Obs.monotonic_ns ();
        cache_path;
        snap_checksum = lazy (Snapshot.checksum snap);
        dirty = false;
        running = true;
      }
    in
    (* warm start: a stale or damaged sidecar just means starting cold *)
    (match cache_path with
    | Some path when Sys.file_exists path -> (
        match
          Cache.load path ~snapshot_checksum:(Lazy.force st.snap_checksum)
            ~capacity:cache_capacity
        with
        | Ok (lru, n) ->
            st.cache <- lru;
            stats.warm_entries <- n
        | Error _ -> ())
    | _ -> ());
    let listener = listener_of addr in
    Fun.protect
      ~finally:(fun () ->
        (match st.wq with Some wq -> G.Pool.Workqueue.shutdown wq | None -> ());
        (try Unix.close notify_r with Unix.Unix_error _ -> ());
        (try Unix.close notify_w with Unix.Unix_error _ -> ());
        (try Unix.close listener with Unix.Unix_error _ -> ());
        match addr with
        | `Unix path -> ( try Unix.unlink path with Unix.Unix_error _ | Sys_error _ -> ())
        | `Tcp _ -> ())
      (fun () ->
        Option.iter (fun f -> f ()) on_ready;
        serve_loop ?cache_save_every st listener;
        save_cache st)
  in
  let effective = G.Pool.recommended_size ~requested:domains in
  if effective > 1 then G.Pool.with_pool effective (fun pool -> run (Some pool))
  else run None;
  stats
