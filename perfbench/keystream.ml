(* The serve workload's request stream: a seeded universe of distinct
   query keys and a Zipf-skewed sequence of draws over it.

   A key is what the daemon's LRU is keyed on beyond the fixed detector:
   a target set of 1–3 output labels and an [m_sample].  The universe is
   several times the cache capacity, so the skewed stream produces both
   hits (popular keys stay resident) and misses that evict (the long
   tail), the mix a shared developer-facing daemon sees. *)

type key = { targets : string list; m_sample : int }

let m_samples = [| 8; 10; 12 |]

(* [universe ~seed ~labels ~size] draws [size] distinct keys, in draw
   order; rank 0 of the Zipf law is the first key drawn.  Deterministic
   in [seed].  Raises [Invalid_argument] when [labels] cannot supply
   [size] distinct keys. *)
let universe ~seed ~labels ~size =
  let labels = Array.of_list (List.sort_uniq compare labels) in
  let nl = Array.length labels in
  if nl = 0 then invalid_arg "Keystream.universe: no labels";
  let rng = Rca_rng.Splitmix.create seed in
  let seen = Hashtbl.create (2 * size) in
  let keys = ref [] and found = ref 0 and attempts = ref 0 in
  while !found < size do
    incr attempts;
    if !attempts > 100 * size then invalid_arg "Keystream.universe: too few labels";
    let k = 1 + Rca_rng.Prng.int rng (min 3 nl) in
    let targets =
      Rca_rng.Prng.sample rng ~n:nl ~k
      |> Array.to_list |> List.map (Array.get labels) |> List.sort compare
    in
    let key = { targets; m_sample = m_samples.(Rca_rng.Prng.int rng (Array.length m_samples)) } in
    if not (Hashtbl.mem seen key) then begin
      Hashtbl.add seen key ();
      keys := key :: !keys;
      incr found
    end
  done;
  Array.of_list (List.rev !keys)

(* Zipf law over ranks [0, n): rank r has weight 1 / (r + 1)^s. *)
type zipf = { cdf : float array }

let zipf ~s n =
  if n <= 0 then invalid_arg "Keystream.zipf: empty support";
  let w = Array.init n (fun r -> 1.0 /. (float_of_int (r + 1) ** s)) in
  let total = Array.fold_left ( +. ) 0.0 w in
  let acc = ref 0.0 in
  { cdf = Array.map (fun x -> acc := !acc +. (x /. total); !acc) w }

(* Smallest rank whose cumulative weight exceeds a uniform draw. *)
let draw z rng =
  let u = Rca_rng.Prng.float01 rng in
  let n = Array.length z.cdf in
  let lo = ref 0 and hi = ref (n - 1) in
  while !lo < !hi do
    let mid = (!lo + !hi) / 2 in
    if z.cdf.(mid) > u then hi := mid else lo := mid + 1
  done;
  !lo

(* An endless stream of ranks; [next] is deterministic in [seed]. *)
type stream = { z : zipf; rng : Rca_rng.Prng.t }

let stream ~seed ~s n = { z = zipf ~s n; rng = Rca_rng.Splitmix.create seed }
let next st = draw st.z st.rng
