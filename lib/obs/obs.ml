(* Pipeline-wide tracing and metrics.

   One global, process-wide recorder: span-scoped wall-clock timers,
   named monotone counters and last-write-wins gauges.  Everything is a
   no-op until [enable] flips the single atomic flag, so instrumented
   hot paths pay one atomic load (plus the closure already at the call
   site) when tracing is off — the "compiled-out" sink the bench
   overhead budget relies on.

   Recording is domain-safe: the pool workers increment counters and the
   caller records spans concurrently, all behind one mutex (taken only
   when enabled, at batch granularity — never inside a kernel's inner
   loop).  Spans carry the recording domain's id as the Chrome-trace
   [tid], so nested spans reconstruct per-domain flame graphs.

   Determinism contract: instrumentation only observes — it never
   branches the instrumented computation, so enabled and disabled runs
   produce bitwise-identical results (locked down by test_obs.ml and the
   `bench pipeline` differential check). *)

type arg = Int of int | Float of float | Str of string

type span_record = {
  span_name : string;
  ts_us : float;  (* start, microseconds since [enable] *)
  dur_us : float;
  tid : int;  (* recording domain id *)
  span_args : (string * arg) list;
}

let enabled_flag = Atomic.make false
let enabled () = Atomic.get enabled_flag

let lock = Mutex.create ()
let events : span_record list ref = ref []  (* newest first *)
let counter_tbl : (string, int) Hashtbl.t = Hashtbl.create 64
let gauge_tbl : (string, float) Hashtbl.t = Hashtbl.create 16
let epoch_us = ref 0.0
let wall_epoch = ref 0.0  (* Unix epoch us at [enable], for trace anchoring only *)

(* Span timing runs on the OS monotonic clock (clock_gettime(CLOCK_MONOTONIC)
   via a tiny C stub — the distribution's Unix module has no monotonic
   source).  A long-lived serve daemon records spans for days; wall time
   is NTP-steppable, which made durations negative or wildly wrong.  The
   wall clock is kept only to anchor a trace to calendar time. *)
external monotonic_ns : unit -> int64 = "rca_obs_monotonic_ns"

let now_us () = Int64.to_float (monotonic_ns ()) /. 1e3

let locked f =
  Mutex.lock lock;
  Fun.protect ~finally:(fun () -> Mutex.unlock lock) f

let reset () =
  locked (fun () ->
      events := [];
      Hashtbl.reset counter_tbl;
      Hashtbl.reset gauge_tbl)

let enable () =
  reset ();
  epoch_us := now_us ();
  wall_epoch := Unix.gettimeofday () *. 1e6;
  Atomic.set enabled_flag true

let wall_epoch_us () = !wall_epoch

let disable () = Atomic.set enabled_flag false

let record name ~t0 ~t1 args =
  let ev =
    {
      span_name = name;
      ts_us = t0 -. !epoch_us;
      dur_us = t1 -. t0;
      tid = (Domain.self () :> int);
      span_args = args;
    }
  in
  locked (fun () -> events := ev :: !events)

let span ?(args = []) name f =
  if not (enabled ()) then f ()
  else begin
    let t0 = now_us () in
    match f () with
    | r ->
        record name ~t0 ~t1:(now_us ()) args;
        r
    | exception e ->
        record name ~t0 ~t1:(now_us ()) (("raised", Str (Printexc.to_string e)) :: args);
        raise e
  end

let span' name args_of f =
  if not (enabled ()) then f ()
  else begin
    let t0 = now_us () in
    match f () with
    | r ->
        record name ~t0 ~t1:(now_us ()) (args_of r);
        r
    | exception e ->
        record name ~t0 ~t1:(now_us ()) [ ("raised", Str (Printexc.to_string e)) ];
        raise e
  end

let incr ?(by = 1) name =
  if enabled () then
    locked (fun () ->
        Hashtbl.replace counter_tbl name
          (by + Option.value ~default:0 (Hashtbl.find_opt counter_tbl name)))

let gauge name v = if enabled () then locked (fun () -> Hashtbl.replace gauge_tbl name v)

(* --- introspection --------------------------------------------------------- *)

let spans () = locked (fun () -> List.rev !events)

let counters () =
  locked (fun () -> Hashtbl.fold (fun k v acc -> (k, v) :: acc) counter_tbl [])
  |> List.sort compare

let gauges () =
  locked (fun () -> Hashtbl.fold (fun k v acc -> (k, v) :: acc) gauge_tbl [])
  |> List.sort compare

let counter_value name =
  locked (fun () -> Option.value ~default:0 (Hashtbl.find_opt counter_tbl name))

let span_count name =
  locked (fun () -> List.length (List.filter (fun e -> e.span_name = name) !events))

let span_total_ms name =
  locked (fun () ->
      List.fold_left
        (fun acc e -> if e.span_name = name then acc +. (e.dur_us /. 1e3) else acc)
        0.0 !events)

(* --- emitters -------------------------------------------------------------- *)

let json_escape s =
  let buf = Buffer.create (String.length s + 8) in
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | c when Char.code c < 0x20 -> Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char buf c)
    s;
  Buffer.contents buf

(* JSON has no NaN/infinity literals; clamp to null. *)
let float_json f =
  if Float.is_finite f then Printf.sprintf "%.6f" f else "null"

let arg_json = function
  | Int i -> string_of_int i
  | Float f -> float_json f
  | Str s -> "\"" ^ json_escape s ^ "\""

let args_json buf args =
  Buffer.add_char buf '{';
  List.iteri
    (fun i (k, v) ->
      if i > 0 then Buffer.add_char buf ',';
      Buffer.add_string buf (Printf.sprintf "\"%s\":%s" (json_escape k) (arg_json v)))
    args;
  Buffer.add_char buf '}'

(* Chrome trace-event JSON (the object form, "X" complete events; load
   in chrome://tracing or Perfetto).  ts/dur are microseconds. *)
let chrome_trace_json () =
  let evs = spans () in
  let buf = Buffer.create 4096 in
  (* wallClockStartUs anchors the monotonic timeline to calendar time —
     the only place wall time appears *)
  Buffer.add_string buf
    (Printf.sprintf "{\"displayTimeUnit\":\"ms\",\"wallClockStartUs\":%s,\"traceEvents\":["
       (float_json !wall_epoch));
  List.iteri
    (fun i ev ->
      if i > 0 then Buffer.add_char buf ',';
      Buffer.add_string buf
        (Printf.sprintf "\n{\"name\":\"%s\",\"cat\":\"rca\",\"ph\":\"X\",\"pid\":0,\"tid\":%d,\"ts\":%s,\"dur\":%s"
           (json_escape ev.span_name) ev.tid (float_json ev.ts_us) (float_json ev.dur_us));
      if ev.span_args <> [] then begin
        Buffer.add_string buf ",\"args\":";
        args_json buf ev.span_args
      end;
      Buffer.add_char buf '}')
    evs;
  (* final counter values as one metadata-style event, so a trace alone
     carries the counters too *)
  let cs = counters () in
  if cs <> [] then begin
    if evs <> [] then Buffer.add_char buf ',';
    Buffer.add_string buf
      "\n{\"name\":\"counters\",\"cat\":\"rca\",\"ph\":\"I\",\"pid\":0,\"tid\":0,\"ts\":0,\"s\":\"g\",\"args\":";
    args_json buf (List.map (fun (k, v) -> (k, Int v)) cs);
    Buffer.add_char buf '}'
  end;
  Buffer.add_string buf "\n]}\n";
  Buffer.contents buf

(* Flat aggregate: per-span-name count/total/mean/max plus counters and
   gauges, keys sorted for stable diffs. *)
let summary_json () =
  let evs = spans () in
  let agg : (string, int * float * float) Hashtbl.t = Hashtbl.create 32 in
  List.iter
    (fun e ->
      let n, tot, mx =
        Option.value ~default:(0, 0.0, 0.0) (Hashtbl.find_opt agg e.span_name)
      in
      Hashtbl.replace agg e.span_name
        (n + 1, tot +. (e.dur_us /. 1e3), Float.max mx (e.dur_us /. 1e3)))
    evs;
  let names = Hashtbl.fold (fun k _ acc -> k :: acc) agg [] |> List.sort compare in
  let buf = Buffer.create 1024 in
  Buffer.add_string buf "{\"spans\":{";
  List.iteri
    (fun i name ->
      (* [name] comes from folding [agg] itself, but a bare Hashtbl.find
         on a serve-reachable path is a daemon-killing Not_found waiting
         for a refactor; default explicitly instead *)
      let n, tot, mx = Option.value ~default:(0, 0.0, 0.0) (Hashtbl.find_opt agg name) in
      if i > 0 then Buffer.add_char buf ',';
      Buffer.add_string buf
        (Printf.sprintf "\n  \"%s\":{\"count\":%d,\"total_ms\":%s,\"mean_ms\":%s,\"max_ms\":%s}"
           (json_escape name) n (float_json tot)
           (float_json (tot /. float_of_int (max 1 n)))
           (float_json mx)))
    names;
  Buffer.add_string buf "},\n\"counters\":";
  args_json buf (List.map (fun (k, v) -> (k, Int v)) (counters ()));
  Buffer.add_string buf ",\n\"gauges\":";
  args_json buf (List.map (fun (k, v) -> (k, Float v)) (gauges ()));
  Buffer.add_string buf "}";
  Buffer.contents buf

let write_file path contents =
  let oc = open_out path in
  Fun.protect ~finally:(fun () -> close_out oc) (fun () -> output_string oc contents)

let write_chrome_trace path = write_file path (chrome_trace_json ())
let write_summary path = write_file path (summary_json ())
