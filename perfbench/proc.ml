(* Process-level measurements: set-up time of a fresh process, peak
   resident memory, and the clocks the workloads share. *)

let now_s () = Int64.to_float (Rca_obs.Obs.monotonic_ns ()) /. 1e9

(* Peak resident set (VmHWM) of a live process, in MiB. *)
let peak_rss_mb pid =
  let path = if pid = 0 then "/proc/self/status" else Printf.sprintf "/proc/%d/status" pid in
  let ic = open_in path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () ->
      let rec scan () =
        match input_line ic with
        | line when String.length line > 6 && String.sub line 0 6 = "VmHWM:" ->
            Scanf.sscanf (String.sub line 6 (String.length line - 6)) " %d kB" (fun kb ->
                float_of_int kb /. 1024.0)
        | _ -> scan ()
        | exception End_of_file -> failwith ("no VmHWM in " ^ path)
      in
      scan ())

(* Flag that makes the benchmark binary print the monotonic clock and
   exit: the end point of a start-up probe. *)
let ready_flag = "--ready-probe"

(* Seconds from spawning a fresh copy of this executable to its first
   line of benchmark code: exec, runtime start-up and every library's
   module initialisers.  The monotonic clock is system-wide, so the
   child's reading compares with the parent's. *)
let startup_s () =
  let r, w = Unix.pipe ~cloexec:true () in
  let t0 = Rca_obs.Obs.monotonic_ns () in
  let pid =
    Unix.create_process Sys.executable_name [| Sys.executable_name; ready_flag |] Unix.stdin w
      Unix.stderr
  in
  Unix.close w;
  let ic = Unix.in_channel_of_descr r in
  let line = Fun.protect ~finally:(fun () -> close_in ic) (fun () -> input_line ic) in
  ignore (Unix.waitpid [] pid);
  Int64.to_float (Int64.sub (Int64.of_string (String.trim line)) t0) /. 1e9

(* Aggregate CPU ticks of the machine: (all, stolen by the hypervisor). *)
let cpu_ticks () =
  match In_channel.with_open_text "/proc/stat" In_channel.input_line with
  | Some line when String.length line > 4 && String.sub line 0 4 = "cpu " ->
      let fields =
        String.split_on_char ' ' line |> List.filter (( <> ) "") |> List.tl
        |> List.map int_of_string
      in
      (List.fold_left ( + ) 0 fields, Option.value ~default:0 (List.nth_opt fields 7))
  | _ | (exception Sys_error _) -> (0, 0)

(* Share of the machine's CPU time stolen between two [cpu_ticks]
   readings, in percent: time the guest wanted to run and was not
   scheduled.  A run with a high share measured a slower machine. *)
let steal_pct (all0, steal0) (all1, steal1) =
  if all1 > all0 then 100.0 *. float_of_int (steal1 - steal0) /. float_of_int (all1 - all0) else 0.0
