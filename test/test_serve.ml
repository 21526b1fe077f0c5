(* Tests for rca_serve: the JSON codec, the LRU cache, snapshot
   save/load round trips (the byte-identity contract: a pipeline run on
   a loaded snapshot equals one on the freshly built model, both
   engines), rejection of damaged snapshot files, and a forked
   query-daemon end-to-end exercise including garbage requests (the
   daemon must answer an error object and keep serving). *)

open Rca_experiments
module MG = Rca_metagraph.Metagraph
module G = Rca_graph
module Snap = Rca_serve.Snapshot
module Server = Rca_serve.Server
module Client = Rca_serve.Client
module Lru = Rca_serve.Lru
module J = Rca_serve.Jsonio
module Cache = Rca_serve.Cache
module Binio = Rca_serve.Binio

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)
let check_string = Alcotest.(check string)

(* --- jsonio --------------------------------------------------------------------- *)

let json_roundtrip () =
  let cases =
    [
      "null";
      "true";
      "false";
      "0";
      "-17";
      "3.25";
      {|"plain"|};
      {|"es\"c\\ap\ne\td"|};
      "[]";
      "[1,2,3]";
      {|{"a":1,"b":[true,null],"c":{"d":"e"}}|};
    ]
  in
  List.iter
    (fun s ->
      match J.of_string s with
      | Error msg -> Alcotest.failf "%s failed to parse: %s" s msg
      | Ok v -> check_string s s (J.to_string v))
    cases

let json_unicode_escapes () =
  (match J.of_string {|"Aé€"|} with
  | Ok (J.Str s) -> check_string "utf8" "A\xc3\xa9\xe2\x82\xac" s
  | _ -> Alcotest.fail "unicode escapes");
  (* surrogate pair -> one supplementary code point *)
  match J.of_string {|"😀"|} with
  | Ok (J.Str s) -> check_string "surrogate pair" "\xf0\x9f\x98\x80" s
  | _ -> Alcotest.fail "surrogate pair"

let json_errors () =
  List.iter
    (fun s ->
      match J.of_string s with
      | Ok v -> Alcotest.failf "%S should not parse, got %s" s (J.to_string v)
      | Error _ -> ())
    [
      "";
      "{";
      "[1,2";
      "{\"a\":}";
      "tru";
      "nul";
      "\"unterminated";
      "\"bad \\q escape\"";
      "01extra";
      "1 2";
      "{\"a\":1,}";
      "[1,]";
      "nan";
      "\"ctrl \x01 char\"";
    ]

let json_accessors () =
  let v = Result.get_ok (J.of_string {|{"n":5,"s":"x","l":[1],"f":2.5}|}) in
  check_bool "member" true (J.member "n" v = Some (J.Num 5.0));
  check_bool "absent member" true (J.member "zz" v = None);
  check_bool "int_opt" true (Option.bind (J.member "n" v) J.int_opt = Some 5);
  check_bool "int_opt rejects float" true (Option.bind (J.member "f" v) J.int_opt = None);
  check_bool "string_opt" true (Option.bind (J.member "s" v) J.string_opt = Some "x");
  check_bool "list_opt" true (Option.bind (J.member "l" v) J.list_opt = Some [ J.Num 1.0 ]);
  check_string "escaped key printing" {|{"a\nb":1}|} (J.to_string (J.Obj [ ("a\nb", J.num 1) ]))

(* --- lru ------------------------------------------------------------------------- *)

let lru_eviction_order () =
  let c = Lru.create 3 in
  Lru.add c "a" 1;
  Lru.add c "b" 2;
  Lru.add c "c" 3;
  check_int "full" 3 (Lru.length c);
  Lru.add c "d" 4;
  (* "a" was least recent *)
  check_bool "a evicted" true (Lru.find c "a" = None);
  check_int "still capacity" 3 (Lru.length c);
  check_int "evictions" 1 (Lru.evictions c)

let lru_find_promotes () =
  let c = Lru.create 3 in
  Lru.add c "a" 1;
  Lru.add c "b" 2;
  Lru.add c "c" 3;
  check_bool "hit a" true (Lru.find c "a" = Some 1);
  Lru.add c "d" 4;
  (* "b" is now the least recent, "a" was promoted by the find *)
  check_bool "b evicted" true (Lru.find c "b" = None);
  check_bool "a survives" true (Lru.find c "a" = Some 1);
  check_bool "most recent first" true (fst (List.hd (Lru.to_list c)) = "a")

let lru_overwrite_promotes () =
  let c = Lru.create 2 in
  Lru.add c "a" 1;
  Lru.add c "b" 2;
  Lru.add c "a" 10;
  Lru.add c "c" 3;
  check_bool "b evicted" true (Lru.find c "b" = None);
  check_bool "a overwritten" true (Lru.find c "a" = Some 10);
  check_int "length" 2 (Lru.length c)

let lru_capacity_one () =
  let c = Lru.create 1 in
  Lru.add c 1 "x";
  Lru.add c 2 "y";
  check_bool "only latest" true (Lru.find c 2 = Some "y" && Lru.find c 1 = None);
  Alcotest.check_raises "zero capacity rejected"
    (Invalid_argument "Lru.create: capacity must be positive") (fun () ->
      ignore (Lru.create 0))

(* --- snapshot fixtures ------------------------------------------------------------ *)

(* One tiny-scale GOFFGRATCH model compiled the way `rca_main compile`
   does it: fixture + selection + bug nodes + freeze. *)
let compiled =
  lazy
    (let config = Rca_synth.Config.tiny in
     let spec = Experiments.goffgratch in
     let fixture = Fixture.make ~inject:spec.Harness.inject config in
     let p = Harness.default_params config in
     let sel = Harness.select_affected spec p fixture in
     let bug_nodes = Fixture.bug_nodes fixture ~canonicals:spec.Harness.bug_canonicals in
     let mg = fixture.Fixture.mg in
     let keep_modules =
       if spec.Harness.restrict_to_cam then
         Some
           (Array.to_list mg.MG.node_meta
           |> List.map (fun nd -> nd.MG.module_)
           |> List.sort_uniq compare
           |> List.filter Rca_synth.Outputs.is_cam_module)
       else None
     in
     {
       Snap.version = Snap.current_version;
       fingerprint = "test tiny GOFFGRATCH";
       scale = "tiny";
       experiment = spec.Harness.name;
       mg;
       frozen = Rca_core.Frozen.freeze mg.MG.graph;
       keep_modules;
       bug_nodes;
       default_targets = sel.Harness.sel_affected;
     })

let saved_bytes =
  lazy
    (let snap = Lazy.force compiled in
     let path = Filename.temp_file "rca_snap_test" ".rcasnap" in
     Snap.save path snap;
     let ic = open_in_bin path in
     let data = really_input_string ic (in_channel_length ic) in
     close_in ic;
     Sys.remove path;
     data)

let load_bytes data =
  let path = Filename.temp_file "rca_snap_test" ".rcasnap" in
  let oc = open_out_bin path in
  output_string oc data;
  close_out oc;
  let r = Snap.load path in
  Sys.remove path;
  r

let sorted_bindings tbl = Hashtbl.fold (fun k v acc -> (k, v) :: acc) tbl [] |> List.sort compare

(* --- snapshot round trip ----------------------------------------------------------- *)

let snapshot_structural_roundtrip () =
  let snap = Lazy.force compiled in
  let loaded =
    match load_bytes (Lazy.force saved_bytes) with
    | Ok s -> s
    | Error msg -> Alcotest.failf "load failed: %s" msg
  in
  check_string "fingerprint" snap.Snap.fingerprint loaded.Snap.fingerprint;
  check_string "scale" snap.Snap.scale loaded.Snap.scale;
  check_string "experiment" snap.Snap.experiment loaded.Snap.experiment;
  check_bool "keep_modules" true (snap.Snap.keep_modules = loaded.Snap.keep_modules);
  check_bool "bug_nodes" true (snap.Snap.bug_nodes = loaded.Snap.bug_nodes);
  check_bool "default_targets" true (snap.Snap.default_targets = loaded.Snap.default_targets);
  let a = snap.Snap.mg and b = loaded.Snap.mg in
  check_bool "node_meta" true (a.MG.node_meta = b.MG.node_meta);
  check_int "graph n" (G.Digraph.n a.MG.graph) (G.Digraph.n b.MG.graph);
  check_int "graph m" (G.Digraph.m a.MG.graph) (G.Digraph.m b.MG.graph);
  (* both list orders must survive verbatim — the determinism contract *)
  check_bool "succ and pred orders" true
    (G.Digraph.adjacency a.MG.graph = G.Digraph.adjacency b.MG.graph);
  check_bool "by_key" true (sorted_bindings a.MG.by_key = sorted_bindings b.MG.by_key);
  (* by_canonical is rebuilt, not deserialized: per-name id lists must
     still match exactly, order included *)
  check_bool "by_canonical" true
    (sorted_bindings a.MG.by_canonical = sorted_bindings b.MG.by_canonical);
  check_bool "io_map" true (sorted_bindings a.MG.io_map = sorted_bindings b.MG.io_map);
  check_bool "edge_origins" true
    (sorted_bindings a.MG.edge_origins = sorted_bindings b.MG.edge_origins);
  check_bool "stats" true (a.MG.stats = b.MG.stats);
  (* the reconstructed frozen CSR must be bitwise identical to freezing
     the original graph *)
  let fa = snap.Snap.frozen and fb = loaded.Snap.frozen in
  check_bool "csr row" true (fa.Rca_core.Frozen.csr.G.Csr.row = fb.Rca_core.Frozen.csr.G.Csr.row);
  check_bool "csr col" true (fa.Rca_core.Frozen.csr.G.Csr.col = fb.Rca_core.Frozen.csr.G.Csr.col);
  check_bool "csr src" true (fa.Rca_core.Frozen.csr.G.Csr.src = fb.Rca_core.Frozen.csr.G.Csr.src);
  check_bool "csr rev" true (fa.Rca_core.Frozen.csr.G.Csr.rev = fb.Rca_core.Frozen.csr.G.Csr.rev);
  check_bool "transpose row" true
    (fa.Rca_core.Frozen.rev.G.Csr.row = fb.Rca_core.Frozen.rev.G.Csr.row);
  check_bool "transpose col" true
    (fa.Rca_core.Frozen.rev.G.Csr.col = fb.Rca_core.Frozen.rev.G.Csr.col)

let strip t =
  ( t.Rca_core.Pipeline.slice.Rca_core.Slice.nodes,
    t.Rca_core.Pipeline.slice.Rca_core.Slice.targets,
    List.map
      (fun it ->
        Rca_core.Refine.
          (it.nodes, it.communities, it.sampled_by_community, it.sampled, it.detected))
      t.Rca_core.Pipeline.result.Rca_core.Refine.iterations,
    t.Rca_core.Pipeline.result.Rca_core.Refine.final_nodes,
    t.Rca_core.Pipeline.result.Rca_core.Refine.outcome )

(* The tentpole property: a pipeline run on the loaded snapshot is
   byte-identical to one on the freshly built model, on both engines. *)
let snapshot_pipeline_identical engine () =
  let snap = Lazy.force compiled in
  let loaded =
    match load_bytes (Lazy.force saved_bytes) with
    | Ok s -> s
    | Error msg -> Alcotest.failf "load failed: %s" msg
  in
  let keep_module m =
    match snap.Snap.keep_modules with None -> true | Some ms -> List.mem m ms
  in
  let targets = List.sort_uniq compare snap.Snap.default_targets in
  let run (s : Snap.t) =
    Rca_core.Pipeline.run ~keep_module ~min_cluster:4 ~m_sample:10 ~gn_approx:128
      ~stop_size:30 ~engine ~frozen:s.Snap.frozen s.Snap.mg ~outputs:targets
      ~detect:(Rca_core.Detector.reachability s.Snap.mg ~bug_nodes:s.Snap.bug_nodes)
  in
  let orig = run snap and reloaded = run loaded in
  check_bool "pipeline results identical" true (strip orig = strip reloaded);
  check_bool "candidates identical" true
    (Rca_core.Pipeline.candidates snap.Snap.mg orig
    = Rca_core.Pipeline.candidates loaded.Snap.mg reloaded);
  check_bool "located bugs identical" true
    (Rca_core.Pipeline.located_bugs snap.Snap.mg orig ~bug_nodes:snap.Snap.bug_nodes
    = Rca_core.Pipeline.located_bugs loaded.Snap.mg reloaded ~bug_nodes:loaded.Snap.bug_nodes)

let snapshot_describe () =
  let snap = Lazy.force compiled in
  let path = Filename.temp_file "rca_snap_test" ".rcasnap" in
  Snap.save path snap;
  (match Snap.describe path with
  | Ok (fp, scale, experiment) ->
      check_string "fingerprint" snap.Snap.fingerprint fp;
      check_string "scale" "tiny" scale;
      check_string "experiment" snap.Snap.experiment experiment
  | Error msg -> Alcotest.failf "describe failed: %s" msg);
  Sys.remove path

(* --- snapshot rejection ------------------------------------------------------------- *)

let contains_substring haystack needle =
  let nh = String.length haystack and nn = String.length needle in
  let rec at i = i + nn <= nh && (String.sub haystack i nn = needle || at (i + 1)) in
  at 0

let expect_error ~substr data =
  match load_bytes data with
  | Ok _ -> Alcotest.failf "damaged snapshot loaded (wanted error with %S)" substr
  | Error msg ->
      if not (contains_substring msg substr) then
        Alcotest.failf "error %S does not mention %S" msg substr

let snapshot_rejects_damage () =
  let data = Lazy.force saved_bytes in
  let flip s i =
    let b = Bytes.of_string s in
    Bytes.set b i (Char.chr (Char.code (Bytes.get b i) lxor 0xff));
    Bytes.to_string b
  in
  expect_error ~substr:"shorter than the fixed header" (String.sub data 0 10);
  expect_error ~substr:"payload shorter" (String.sub data 0 (String.length data / 2));
  expect_error ~substr:"bad magic" (flip data 0);
  expect_error ~substr:"snapshot version" (flip data 8);
  expect_error ~substr:"checksum mismatch" (flip data 40);
  expect_error ~substr:"trailing bytes" (data ^ "x");
  (* empty and non-snapshot files *)
  expect_error ~substr:"shorter than the fixed header" "";
  expect_error ~substr:"bad magic" (String.make 64 'j');
  check_bool "pristine bytes still load" true (Result.is_ok (load_bytes data))

(* Re-wrap a (corrupted) payload in a valid frame — fresh length and
   checksum — so the structural readers, not the framing checks, must
   reject it.  These used to be [assert false] territory. *)
let reframe payload =
  let b = Buffer.create (String.length payload + 32) in
  Buffer.add_string b "RCASNAP\n";
  Buffer.add_int64_le b (Int64.of_int Snap.current_version);
  Buffer.add_int64_le b (Int64.of_int (String.length payload));
  Buffer.add_int64_le b (Binio.fnv1a64 payload);
  Buffer.add_string b payload;
  Buffer.contents b

let snapshot_rejects_payload_damage () =
  let data = Lazy.force saved_bytes in
  let payload = String.sub data 32 (String.length data - 32) in
  check_bool "reframed pristine payload loads" true (Result.is_ok (load_bytes (reframe payload)));
  (* payload cut mid-field, but with a consistent header *)
  expect_error ~substr:"ends mid-field"
    (reframe (String.sub payload 0 (String.length payload - 1)));
  (* structurally complete payload followed by junk *)
  expect_error ~substr:"trailing bytes" (reframe (payload ^ "zz"));
  (* implausible leading string length (first field: fingerprint) *)
  let huge = Bytes.of_string payload in
  Bytes.set_int64_le huge 0 0x7fffffffffL;
  expect_error ~substr:"implausible" (reframe (Bytes.to_string huge));
  let negative = Bytes.of_string payload in
  Bytes.set_int64_le negative 0 (-1L);
  expect_error ~substr:"implausible" (reframe (Bytes.to_string negative))

(* --- persisted query cache ---------------------------------------------------------- *)

let mk_answer i =
  {
    Cache.a_targets = [ Printf.sprintf "T%d" i ];
    a_detector = "gn";
    a_engine = "masked";
    a_slice_nodes = 10 * i;
    a_slice_targets = 1;
    a_iterations = 2;
    a_outcome = "converged";
    a_final_nodes = i + 1;
    a_candidates = [ (Printf.sprintf "cand%d" i, "mod", "sub", 40 + i) ];
    a_located = [ "mod::sub@41" ];
  }

let cache_roundtrip_and_invalidation () =
  let lru = Lru.create 4 in
  Lru.add lru "k1" (mk_answer 1);
  Lru.add lru "k2" (mk_answer 2);
  Lru.add lru "k3" (mk_answer 3);
  ignore (Lru.find lru "k1");
  (* recency now: k1, k3, k2 *)
  let path = Filename.temp_file "rca_cache_test" ".rcacache" in
  Cache.save path ~snapshot_checksum:42L lru;
  (match Cache.load path ~snapshot_checksum:42L ~capacity:4 with
  | Ok (loaded, n) ->
      check_int "entry count" 3 n;
      check_bool "entries and recency order survive" true (Lru.to_list loaded = Lru.to_list lru)
  | Error msg -> Alcotest.failf "cache load failed: %s" msg);
  (* a smaller capacity keeps the most recent entries *)
  (match Cache.load path ~snapshot_checksum:42L ~capacity:2 with
  | Ok (loaded, _) ->
      check_bool "eviction honours saved recency" true
        (List.map fst (Lru.to_list loaded) = [ "k1"; "k3" ])
  | Error msg -> Alcotest.failf "cache load failed: %s" msg);
  (* checksum-mismatch invalidation: a recompiled model rejects the file *)
  (match Cache.load path ~snapshot_checksum:43L ~capacity:4 with
  | Ok _ -> Alcotest.fail "cache stamped for another snapshot was accepted"
  | Error msg ->
      check_bool "names the snapshot mismatch" true
        (contains_substring msg "different snapshot"));
  let ic = open_in_bin path in
  let data = really_input_string ic (in_channel_length ic) in
  close_in ic;
  Sys.remove path;
  let flip s i =
    let b = Bytes.of_string s in
    Bytes.set b i (Char.chr (Char.code (Bytes.get b i) lxor 0xff));
    Bytes.to_string b
  in
  let load_cache_bytes bytes =
    let p = Filename.temp_file "rca_cache_test" ".rcacache" in
    let oc = open_out_bin p in
    output_string oc bytes;
    close_out oc;
    let r = Cache.load p ~snapshot_checksum:42L ~capacity:4 in
    Sys.remove p;
    r
  in
  let expect_cache_error ~substr bytes =
    match load_cache_bytes bytes with
    | Ok _ -> Alcotest.failf "damaged cache loaded (wanted error with %S)" substr
    | Error msg ->
        if not (contains_substring msg substr) then
          Alcotest.failf "error %S does not mention %S" msg substr
  in
  expect_cache_error ~substr:"bad magic" (flip data 0);
  expect_cache_error ~substr:"cache version" (flip data 8);
  expect_cache_error ~substr:"checksum mismatch" (flip data 40);
  expect_cache_error ~substr:"shorter than the fixed header" (String.sub data 0 12)

(* --- forked daemon end to end ------------------------------------------------------- *)

let with_daemon ?cache_path ?(workers = 1) f =
  let snap = Lazy.force compiled in
  let dir = Filename.temp_file "rca_serve_test" "" in
  Sys.remove dir;
  Unix.mkdir dir 0o700;
  let sock = Filename.concat dir "rca.sock" in
  flush stdout;
  flush stderr;
  let child =
    match Unix.fork () with
    | 0 ->
        (try ignore (Server.serve ~cache_capacity:8 ~workers ?cache_path (`Unix sock) snap)
         with _ -> ());
        Unix._exit 0
    | pid -> pid
  in
  let rec connect attempts =
    match Client.connect (`Unix sock) with
    | conn -> conn
    | exception Unix.Unix_error _ when attempts > 0 ->
        Unix.sleepf 0.05;
        connect (attempts - 1)
  in
  let conn = connect 100 in
  Fun.protect
    ~finally:(fun () ->
      ignore (Client.request conn (J.Obj [ ("op", J.Str "shutdown") ]));
      Client.close conn;
      ignore (Unix.waitpid [] child);
      (try
         if Sys.file_exists sock then Sys.remove sock;
         Unix.rmdir dir
       with Sys_error _ | Unix.Unix_error _ -> ()))
    (fun () -> f conn)

let reply conn fields =
  match Client.request conn (J.Obj fields) with
  | Ok r -> r
  | Error msg -> Alcotest.failf "request failed: %s" msg

let status r = Option.bind (J.member "status" r) J.string_opt

let daemon_query_and_cache () =
  with_daemon (fun conn ->
      let ping = reply conn [ ("op", J.Str "ping") ] in
      check_bool "ping ok" true (status ping = Some "ok");
      let q = [ ("op", J.Str "query"); ("detector", J.Str "greedy") ] in
      let first = reply conn q in
      check_bool "query ok" true (status first = Some "ok");
      check_bool "first not cached" true (J.member "cached" first = Some (J.Bool false));
      let second = reply conn q in
      check_bool "repeat cached" true (J.member "cached" second = Some (J.Bool true));
      (* identical payloads modulo the per-request fields *)
      let strip_reply r =
        match r with
        | J.Obj fields ->
            List.filter
              (fun (k, _) -> k <> "cached" && k <> "coalesced" && k <> "elapsed_ms")
              fields
        | _ -> Alcotest.fail "reply not an object"
      in
      check_bool "cached reply identical" true (strip_reply first = strip_reply second);
      check_bool "locates the injected bug" true
        (match Option.bind (J.member "located_bugs" first) J.list_opt with
        | Some (_ :: _) -> true
        | _ -> false))

let daemon_survives_garbage () =
  with_daemon (fun conn ->
      (* raw non-JSON bytes: an error object, not a dropped connection *)
      Client.send_line conn "this is {{{ not json";
      (match Client.recv conn with
      | Ok r ->
          check_bool "garbage -> error reply" true (status r = Some "error");
          check_bool "error names the parse failure" true
            (match Option.bind (J.member "error" r) J.string_opt with
            | Some msg -> String.length msg > 0
            | None -> false)
      | Error msg -> Alcotest.failf "no reply to garbage: %s" msg);
      let bad_cases =
        [
          [ ("op", J.Str "query"); ("detector", J.Str "bogus") ];
          [ ("op", J.Str "query"); ("detector", J.Str "gn-adaptive") ];
          [ ("op", J.Str "query"); ("detector", J.Str "louvain") ];
          [ ("op", J.Str "query"); ("engine", J.Str "bogus") ];
          [ ("op", J.Str "query"); ("targets", J.Arr [ J.Str "NO_SUCH_OUTPUT" ]) ];
          [ ("op", J.Str "query"); ("targets", J.Str "not-an-array") ];
          [ ("op", J.Str "launch-missiles") ];
        ]
      in
      List.iter
        (fun fields ->
          let r = reply conn fields in
          check_bool "bad request -> error reply" true (status r = Some "error"))
        bad_cases;
      (* an unknown detector's reply lists the detectors the daemon knows *)
      let r = reply conn [ ("op", J.Str "query"); ("detector", J.Str "lp") ] in
      Alcotest.(check (option string))
        "unknown detector reply names gn|greedy" (Some {|unknown detector "lp" (gn|greedy)|})
        (Option.bind (J.member "error" r) J.string_opt);
      (* the daemon is still alive and still answers good requests *)
      let ping = reply conn [ ("op", J.Str "ping"); ("id", J.num 9) ] in
      check_bool "ping after garbage" true (status ping = Some "ok");
      check_bool "id echoed" true (J.member "id" ping = Some (J.Num 9.0));
      let stats = reply conn [ ("op", J.Str "stats") ] in
      check_bool "errors counted" true
        (match Option.bind (J.member "errors" stats) J.int_opt with
        | Some e -> e = 9
        | None -> false))

let strip_reply r =
  match r with
  | J.Obj fields ->
      List.filter
        (fun (k, _) -> k <> "cached" && k <> "coalesced" && k <> "elapsed_ms" && k <> "id")
        fields
  | _ -> Alcotest.fail "reply not an object"

(* The deliberately slow query: exact Girvan-Newman driven down to
   single-node communities.  Never primed, so it always computes. *)
let slow_fields id =
  [
    ("op", J.Str "query");
    ("id", J.num id);
    ("detector", J.Str "gn");
    ("stop_size", J.num 1);
    ("max_iterations", J.num 50);
  ]

(* Run the slow query's exact parameterization through the in-process
   pipeline, for field-for-field comparison with the served reply. *)
let in_process_slow () =
  let snap = Lazy.force compiled in
  let keep_module m =
    match snap.Snap.keep_modules with None -> true | Some ms -> List.mem m ms
  in
  let targets = List.sort_uniq compare snap.Snap.default_targets in
  let partitioner = Option.get (Rca_core.Refine.partitioner_of_string "gn") in
  Rca_core.Pipeline.run ~keep_module ~min_cluster:4 ~m_sample:10 ~min_community:3
    ~max_iterations:50 ~stop_size:1 ~partitioner ~engine:`Masked ~frozen:snap.Snap.frozen
    snap.Snap.mg ~outputs:targets
    ~detect:(Rca_core.Detector.reachability snap.Snap.mg ~bug_nodes:snap.Snap.bug_nodes)

(* Tentpole behavior: a slow cold query must not stall the reactor —
   fast cached queries pipelined behind it on the SAME connection are
   answered first, out of order, and every payload stays identical to
   its single-shot equivalent. *)
let daemon_concurrent_out_of_order () =
  with_daemon (fun conn ->
      let fast = [ ("op", J.Str "query"); ("detector", J.Str "greedy") ] in
      let primed = reply conn fast in
      check_bool "primed ok" true (status primed = Some "ok");
      Client.send conn (J.Obj (slow_fields 1));
      for i = 2 to 5 do
        Client.send conn (J.Obj (("id", J.num i) :: fast))
      done;
      let order = ref [] in
      for _ = 1 to 5 do
        match Client.recv conn with
        | Ok r -> (
            match Option.bind (J.member "id" r) J.int_opt with
            | Some id -> order := (id, r) :: !order
            | None -> Alcotest.fail "reply without id")
        | Error msg -> Alcotest.failf "recv failed: %s" msg
      done;
      let order = List.rev !order in
      let ids = List.map fst order in
      check_bool "every request answered" true (List.sort compare ids = [ 1; 2; 3; 4; 5 ]);
      check_bool "fast replies arrive before the slow one" true
        (match List.rev ids with 1 :: _ -> true | _ -> false);
      List.iter
        (fun (id, r) ->
          if id >= 2 then begin
            check_bool "fast reply cached" true (J.member "cached" r = Some (J.Bool true));
            check_bool "fast payload identical to single-shot" true
              (strip_reply r = strip_reply primed)
          end)
        order;
      let slow = List.assoc 1 order in
      check_bool "slow ok" true (status slow = Some "ok");
      let pipeline = in_process_slow () in
      let result = pipeline.Rca_core.Pipeline.result in
      let geti k = Option.bind (J.member k slow) J.int_opt in
      check_bool "slow slice_nodes" true
        (geti "slice_nodes"
        = Some (List.length pipeline.Rca_core.Pipeline.slice.Rca_core.Slice.nodes));
      check_bool "slow iterations" true
        (geti "iterations" = Some (List.length result.Rca_core.Refine.iterations));
      check_bool "slow final_nodes" true
        (geti "final_nodes" = Some (List.length result.Rca_core.Refine.final_nodes));
      check_bool "slow outcome" true
        (Option.bind (J.member "outcome" slow) J.string_opt
        = Some (Rca_core.Refine.outcome_string result.Rca_core.Refine.outcome));
      let snap = Lazy.force compiled in
      let expected_cands = Rca_core.Pipeline.candidates snap.Snap.mg pipeline in
      (match Option.bind (J.member "candidates" slow) J.list_opt with
      | None -> Alcotest.fail "slow reply has no candidates"
      | Some items ->
          let got =
            List.map
              (fun it ->
                ( Option.get (Option.bind (J.member "name" it) J.string_opt),
                  Option.get (Option.bind (J.member "module" it) J.string_opt),
                  Option.get (Option.bind (J.member "subprogram" it) J.string_opt),
                  Option.get (Option.bind (J.member "line" it) J.int_opt) ))
              items
          in
          check_bool "slow candidates identical to single-shot" true (got = expected_cands));
      let expected_located =
        Rca_core.Pipeline.located_bugs snap.Snap.mg pipeline ~bug_nodes:snap.Snap.bug_nodes
        |> List.map (fun id -> (MG.node snap.Snap.mg id).MG.unique)
      in
      check_bool "slow located bugs identical to single-shot" true
        (match Option.bind (J.member "located_bugs" slow) J.list_opt with
        | Some items -> List.filter_map J.string_opt items = expected_located
        | None -> false))

(* Two identical cold requests pipelined together: the second attaches
   to the first's in-flight job instead of recomputing. *)
let daemon_inflight_coalescing () =
  with_daemon (fun conn ->
      Client.send conn (J.Obj (slow_fields 1));
      Client.send conn (J.Obj (slow_fields 2));
      let r1 =
        match Client.recv_matching conn ~id:1 with
        | Ok r -> r
        | Error msg -> Alcotest.failf "recv 1 failed: %s" msg
      in
      let r2 =
        match Client.recv_matching conn ~id:2 with
        | Ok r -> r
        | Error msg -> Alcotest.failf "recv 2 failed: %s" msg
      in
      check_bool "first computes" true (J.member "cached" r1 = Some (J.Bool false));
      check_bool "first not coalesced" true (J.member "coalesced" r1 = Some (J.Bool false));
      check_bool "second coalesced onto the in-flight job" true
        (J.member "coalesced" r2 = Some (J.Bool true));
      check_bool "second not served from the LRU" true
        (J.member "cached" r2 = Some (J.Bool false));
      check_bool "coalesced payload identical" true (strip_reply r1 = strip_reply r2))

(* Warm restart: a daemon with a cache sidecar saves on shutdown; the
   next daemon on the same sidecar answers the same query from cache
   immediately, with an identical payload. *)
let daemon_warm_restart () =
  let dir = Filename.temp_file "rca_cache_restart" "" in
  Sys.remove dir;
  Unix.mkdir dir 0o700;
  let cache_path = Filename.concat dir "rca.cache" in
  let fast = [ ("op", J.Str "query"); ("detector", J.Str "greedy") ] in
  let first_run =
    with_daemon ~cache_path (fun conn ->
        let r = reply conn fast in
        check_bool "cold daemon computes" true (J.member "cached" r = Some (J.Bool false));
        strip_reply r)
  in
  check_bool "sidecar written on shutdown" true (Sys.file_exists cache_path);
  with_daemon ~cache_path (fun conn ->
      let r = reply conn fast in
      check_bool "restarted daemon answers warm" true
        (J.member "cached" r = Some (J.Bool true));
      check_bool "warm payload identical across restart" true (strip_reply r = first_run);
      let stats = reply conn [ ("op", J.Str "stats") ] in
      check_bool "warm entries reported" true
        (match Option.bind (J.member "warm_entries" stats) J.int_opt with
        | Some n -> n >= 1
        | None -> false));
  (try
     if Sys.file_exists cache_path then Sys.remove cache_path;
     Unix.rmdir dir
   with Sys_error _ | Unix.Unix_error _ -> ())

let daemon_empty_targets_default () =
  with_daemon (fun conn ->
      let q = reply conn [ ("op", J.Str "query"); ("detector", J.Str "greedy") ] in
      let snap = Lazy.force compiled in
      let expected = List.sort_uniq compare snap.Snap.default_targets in
      check_bool "defaults used" true
        (match Option.bind (J.member "targets" q) J.list_opt with
        | Some items -> List.filter_map J.string_opt items = expected
        | None -> false))

let () =
  Alcotest.run "rca_serve"
    [
      ( "jsonio",
        [
          Alcotest.test_case "roundtrip" `Quick json_roundtrip;
          Alcotest.test_case "unicode escapes" `Quick json_unicode_escapes;
          Alcotest.test_case "parse errors" `Quick json_errors;
          Alcotest.test_case "accessors" `Quick json_accessors;
        ] );
      ( "lru",
        [
          Alcotest.test_case "eviction order" `Quick lru_eviction_order;
          Alcotest.test_case "find promotes" `Quick lru_find_promotes;
          Alcotest.test_case "overwrite promotes" `Quick lru_overwrite_promotes;
          Alcotest.test_case "capacity one" `Quick lru_capacity_one;
        ] );
      ( "snapshot",
        [
          Alcotest.test_case "structural roundtrip" `Quick snapshot_structural_roundtrip;
          Alcotest.test_case "pipeline identical (masked)" `Quick
            (snapshot_pipeline_identical `Masked);
          Alcotest.test_case "pipeline identical (list)" `Quick
            (snapshot_pipeline_identical `List);
          Alcotest.test_case "describe" `Quick snapshot_describe;
          Alcotest.test_case "rejects damage" `Quick snapshot_rejects_damage;
          Alcotest.test_case "rejects payload damage" `Quick snapshot_rejects_payload_damage;
        ] );
      ( "cache",
        [
          Alcotest.test_case "roundtrip and invalidation" `Quick
            cache_roundtrip_and_invalidation;
        ] );
      ( "daemon",
        [
          Alcotest.test_case "query and cache" `Quick daemon_query_and_cache;
          Alcotest.test_case "survives garbage" `Quick daemon_survives_garbage;
          Alcotest.test_case "concurrent out-of-order" `Quick daemon_concurrent_out_of_order;
          Alcotest.test_case "in-flight coalescing" `Quick daemon_inflight_coalescing;
          Alcotest.test_case "warm restart" `Quick daemon_warm_restart;
          Alcotest.test_case "empty targets use defaults" `Quick daemon_empty_targets_default;
        ] );
    ]
