(* Byte-level digests of the front end's outputs, pinned by test_analysis
   and paper_check so a refactor of name resolution provably changes no
   node, edge, symbol or lint finding.

   - [metagraph]: node metadata in id order, then every edge in
     [Digraph.iter_edges] order with its sorted origins, then the I/O map
     and the parser fallback counters.
   - [signature]: [Resolve.signature], one line per symbol.
   - [string]: the md5 of any other text, e.g. a lint report. *)

module MG = Rca_metagraph.Metagraph

let string s = Digest.to_hex (Digest.string s)

let metagraph (mg : MG.t) =
  let b = Buffer.create 65536 in
  Array.iteri
    (fun id (nd : MG.node) ->
      Printf.bprintf b "n %d %s %s %s %s %d %b\n" id nd.MG.canonical nd.MG.unique
        nd.MG.module_ nd.MG.subprogram nd.MG.line nd.MG.synthetic)
    mg.MG.node_meta;
  Rca_graph.Digraph.iter_edges
    (fun u v ->
      Printf.bprintf b "e %d %d" u v;
      List.iter
        (fun (m, s, l) -> Printf.bprintf b " %s|%s|%d" m s l)
        (List.sort compare (MG.edge_origins mg u v));
      Buffer.add_char b '\n')
    mg.MG.graph;
  Hashtbl.fold (fun label names acc -> (label, names) :: acc) mg.MG.io_map []
  |> List.sort compare
  |> List.iter (fun (label, names) ->
         Printf.bprintf b "io %s %s\n" label (String.concat "," names));
  let st = mg.MG.stats in
  Printf.bprintf b "stats %d %d %d %d %d\n" st.MG.assignments_total st.MG.parsed_primary
    st.MG.parsed_relaxed st.MG.parsed_scraped st.MG.unhandled;
  string (Buffer.contents b)

let signature sig_ =
  let b = Buffer.create 65536 in
  List.iter
    (fun (m, s, name, kind, ty) ->
      Printf.bprintf b "%s|%s|%s|%s|%s\n" m s name kind (Option.value ~default:"-" ty))
    sig_;
  string (Buffer.contents b)
