(* Layer timing from the benchmark's side of each call.

   [call name f] times one call into a library layer with the monotonic
   clock and accumulates it under [name]; the call also becomes an Obs
   span, so it lands in the Chrome trace next to the spans the library
   emits itself.  [add] accumulates a count or quantity and [set] records
   a value.  Only traced runs go through this module: untraced runs call
   the layers directly. *)

type acc = { mutable total_ms : float; mutable calls : int }

let times : (string, acc) Hashtbl.t = Hashtbl.create 32
let values : (string, float) Hashtbl.t = Hashtbl.create 32

let now_ms () = Int64.to_float (Rca_obs.Obs.monotonic_ns ()) /. 1e6

let reset () =
  Hashtbl.reset times;
  Hashtbl.reset values

let call name f =
  Rca_obs.Obs.span name (fun () ->
      let t0 = now_ms () in
      let r = f () in
      let dt = now_ms () -. t0 in
      let a =
        match Hashtbl.find_opt times name with
        | Some a -> a
        | None ->
            let a = { total_ms = 0.0; calls = 0 } in
            Hashtbl.replace times name a;
            a
      in
      a.total_ms <- a.total_ms +. dt;
      a.calls <- a.calls + 1;
      r)

let total_ms name = match Hashtbl.find_opt times name with Some a -> a.total_ms | None -> 0.0
let calls name = match Hashtbl.find_opt times name with Some a -> a.calls | None -> 0

let mean_ms name =
  match Hashtbl.find_opt times name with
  | Some a when a.calls > 0 -> a.total_ms /. float_of_int a.calls
  | _ -> 0.0

let add name x =
  Hashtbl.replace values name (x +. Option.value ~default:0.0 (Hashtbl.find_opt values name))

let set name x = Hashtbl.replace values name x
let value name = Option.value ~default:0.0 (Hashtbl.find_opt values name)
