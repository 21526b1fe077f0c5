(* Self-tests for the benchmark's own statistics and request stream. *)

let floats = Alcotest.float 1e-9

let test_beyond () =
  Alcotest.(check int) "p90 of 100 leaves 10 above" 10 (Summary.beyond ~n:100 0.9);
  Alcotest.(check int) "p90 of 92 leaves 10 above" 10 (Summary.beyond ~n:92 0.9);
  Alcotest.(check int) "p90 of 91 leaves 9 above" 9 (Summary.beyond ~n:91 0.9);
  Alcotest.(check int) "p50 of 21 leaves 10 above" 10 (Summary.beyond ~n:21 0.5);
  Alcotest.(check int) "empty sample" 0 (Summary.beyond ~n:0 0.5);
  Alcotest.(check bool) "p90 reportable at 100" true (Summary.reportable ~n:100 0.9);
  Alcotest.(check bool) "p90 not reportable at 91" false (Summary.reportable ~n:91 0.9)

let test_of_samples () =
  let xs = List.init 100 (fun i -> float_of_int (i + 1)) in
  let s = Summary.of_samples xs in
  Alcotest.(check int) "count" 100 s.Summary.count;
  Alcotest.check floats "p50 interpolates" 50.5 s.Summary.p50;
  Alcotest.(check (option floats)) "p90" (Some 90.1) s.Summary.p90;
  let few = Summary.of_samples [ 3.0; 1.0; 2.0 ] in
  Alcotest.check floats "unsorted input" 2.0 few.Summary.p50;
  Alcotest.(check (option floats)) "no p90 from 3 samples" None few.Summary.p90;
  let none = Summary.of_samples [] in
  Alcotest.(check int) "empty count" 0 none.Summary.count;
  Alcotest.(check bool) "empty p50 is nan" true (Float.is_nan none.Summary.p50);
  Alcotest.check floats "median of two" 1.5 (Summary.median [ 2.0; 1.0 ])

let labels = List.init 30 (fun i -> Printf.sprintf "out%02d" i)

let test_universe () =
  let u1 = Keystream.universe ~seed:7 ~labels ~size:256 in
  let u2 = Keystream.universe ~seed:7 ~labels ~size:256 in
  let u3 = Keystream.universe ~seed:8 ~labels ~size:256 in
  Alcotest.(check bool) "same seed, same universe" true (u1 = u2);
  Alcotest.(check bool) "other seed, other universe" true (u1 <> u3);
  let distinct = Array.to_list u1 |> List.sort_uniq compare in
  Alcotest.(check int) "keys are distinct" 256 (List.length distinct);
  Array.iter
    (fun k ->
      let n = List.length k.Keystream.targets in
      Alcotest.(check bool) "1-3 targets" true (n >= 1 && n <= 3);
      Alcotest.(check bool) "targets sorted and distinct" true
        (List.sort_uniq compare k.Keystream.targets = k.Keystream.targets);
      Alcotest.(check bool) "m_sample from the menu" true
        (Array.mem k.Keystream.m_sample Keystream.m_samples))
    u1;
  Alcotest.check_raises "too few labels"
    (Invalid_argument "Keystream.universe: too few labels") (fun () ->
      ignore (Keystream.universe ~seed:1 ~labels:[ "a" ] ~size:10))

let draws seed n =
  let st = Keystream.stream ~seed ~s:1.0 512 in
  List.init n (fun _ -> Keystream.next st)

let test_stream () =
  Alcotest.(check (list int)) "same seed, same stream" (draws 11 2000) (draws 11 2000);
  Alcotest.(check bool) "other seed, other stream" true (draws 11 2000 <> draws 12 2000);
  let xs = draws 11 2000 in
  List.iter (fun r -> Alcotest.(check bool) "rank in range" true (r >= 0 && r < 512)) xs;
  let distinct = List.length (List.sort_uniq compare xs) in
  let cache_capacity = 64 in
  Alcotest.(check bool)
    (Printf.sprintf "%d distinct keys exceed the cache capacity" distinct)
    true
    (distinct > 2 * cache_capacity);
  let count r = List.length (List.filter (( = ) r) xs) in
  Alcotest.(check bool) "rank 0 is the most frequent" true
    (List.for_all (fun r -> count 0 >= count r) (List.init 512 Fun.id))

let test_zipf_cdf () =
  let z = Keystream.zipf ~s:1.0 4 in
  let last = z.Keystream.cdf.(3) in
  Alcotest.check floats "cdf ends at 1" 1.0 last;
  (* weights 1, 1/2, 1/3, 1/4 over 25/12 *)
  Alcotest.check floats "first mass" (12.0 /. 25.0) z.Keystream.cdf.(0)

let () =
  Alcotest.run "perfbench"
    [
      ( "summary",
        [
          Alcotest.test_case "samples beyond a percentile" `Quick test_beyond;
          Alcotest.test_case "summary of samples" `Quick test_of_samples;
        ] );
      ( "keystream",
        [
          Alcotest.test_case "key universe" `Quick test_universe;
          Alcotest.test_case "zipf stream" `Quick test_stream;
          Alcotest.test_case "zipf cdf" `Quick test_zipf_cdf;
        ] );
    ]
