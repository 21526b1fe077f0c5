(* What one workload run reports: how many operations it attempted and
   how many failed their checks, run-level checks, its metrics, and
   details (digests, sample counts, load shape) printed before the
   result line. *)

type t = {
  attempted : int;
  failed : int;
  checks : (string * bool) list;
  metrics : (string * float) list;
  info : (string * Rca_serve.Jsonio.t) list;
}

let correct t = t.failed = 0 && List.for_all snd t.checks

(* Operation tally; a failed operation's reason goes to stderr. *)
type tally = { mutable ops : int; mutable bad : int }

let tally () = { ops = 0; bad = 0 }

let record tally ~what ok =
  tally.ops <- tally.ops + 1;
  if not ok then begin
    tally.bad <- tally.bad + 1;
    Printf.eprintf "perfbench: failed check: %s\n%!" what
  end

let check name ok =
  if not ok then Printf.eprintf "perfbench: failed run check: %s\n%!" name;
  (name, ok)
