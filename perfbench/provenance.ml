(* Where a result came from: machine, compiler, code, model scale. *)

module J = Rca_serve.Jsonio

let read_file path = In_channel.with_open_bin path In_channel.input_all

(* The commit, when the benchmark runs in a git checkout. *)
let commit () =
  match String.trim (read_file ".git/HEAD") with
  | exception Sys_error _ -> J.Null
  | head when String.length head > 5 && String.sub head 0 5 = "ref: " -> (
      let ref_ = String.sub head 5 (String.length head - 5) in
      match String.trim (read_file (Filename.concat ".git" ref_)) with
      | sha -> J.Str sha
      | exception Sys_error _ -> J.Null)
  | sha -> J.Str sha

(* MD5 over the library sources (paths and contents, sorted): names the
   code under test even where no git metadata is at hand. *)
let source_digest () =
  let rec walk dir =
    Sys.readdir dir |> Array.to_list |> List.sort compare
    |> List.concat_map (fun entry ->
           let path = Filename.concat dir entry in
           if Sys.is_directory path then walk path
           else if Filename.check_suffix entry ".ml" || Filename.check_suffix entry ".mli"
                   || Filename.check_suffix entry ".c" || entry = "dune"
           then [ path ]
           else [])
  in
  match walk "lib" with
  | files ->
      let contents = List.concat_map (fun f -> [ f; read_file f ]) files in
      J.Str (Digest.to_hex (Digest.string (String.concat "\x00" contents)))
  | exception Sys_error _ -> J.Null

let config_json (c : Rca_synth.Config.t) =
  let open Rca_synth.Config in
  J.Obj
    [
      ("ncol", J.num c.ncol);
      ("pver", J.num c.pver);
      ("nsteps", J.num c.nsteps);
      ("n_extra_physics", J.num c.n_extra_physics);
      ("n_extra_dynamics", J.num c.n_extra_dynamics);
      ("n_utility", J.num c.n_utility);
      ("n_unused", J.num c.n_unused);
      ("n_unbuilt", J.num c.n_unbuilt);
      ("vars_per_filler", J.num c.vars_per_filler);
      ("seed", J.num c.seed);
    ]

let json ~workload ~seed ~seconds ~trace ~scale config =
  J.Obj
    [
      ("workload", J.Str workload);
      ("seed", J.num seed);
      ("seconds", J.Num seconds);
      ("trace", J.Bool trace);
      ("nproc", J.num (Domain.recommended_domain_count ()));
      ("ocaml", J.Str Sys.ocaml_version);
      ("commit", commit ());
      ("lib_digest", source_digest ());
      ("scale", J.Str scale);
      ("config", config_json config);
    ]
