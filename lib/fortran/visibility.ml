(* Fortran name visibility, shared by the metagraph builder and the
   analyzer: per module, which variable and which candidate procedures a
   name denotes.  Built in two passes over the program: every module's
   own names first, then use-association imports in program order. *)

type callable = { c_module : string; c_sub : Ast.subprogram }

let intrinsic_names =
  [
    "abs"; "sqrt"; "exp"; "log"; "log10"; "min"; "max"; "mod"; "sign"; "sin"; "cos";
    "tan"; "tanh"; "sum"; "maxval"; "minval"; "size"; "real"; "int"; "floor"; "nint";
    "epsilon"; "tiny"; "huge"; "merge"; "dble";
  ]

let is_intrinsic name = List.mem name intrinsic_names

type scope = {
  vars : (string, string * string) Hashtbl.t;
      (* local name -> (owning module, name in the owner) *)
  subs : (string, callable list) Hashtbl.t;
      (* local name -> candidate procedures (own, named interfaces, imported) *)
}

type t = (string, scope) Hashtbl.t

let own_scope (mu : Ast.module_unit) =
  let m = mu.Ast.m_name in
  let s = { vars = Hashtbl.create 32; subs = Hashtbl.create 16 } in
  List.iter
    (fun (d : Ast.decl) -> Hashtbl.replace s.vars d.Ast.d_name (m, d.Ast.d_name))
    mu.Ast.m_decls;
  List.iter
    (fun (sp : Ast.subprogram) ->
      let cur = Option.value ~default:[] (Hashtbl.find_opt s.subs sp.Ast.s_name) in
      Hashtbl.replace s.subs sp.Ast.s_name (cur @ [ { c_module = m; c_sub = sp } ]))
    mu.Ast.m_subprograms;
  List.iter
    (fun (i : Ast.interface_def) ->
      if i.Ast.i_name <> "" then begin
        let cands =
          List.filter_map
            (fun p ->
              Option.map (fun sp -> { c_module = m; c_sub = sp })
                (Ast.find_subprogram mu p))
            i.Ast.i_procedures
        in
        if cands <> [] then Hashtbl.replace s.subs i.Ast.i_name cands
      end)
    mu.Ast.m_interfaces;
  s

(* [use src]: import into [s] only what [src] itself owns (no chains). *)
let import s (u : Ast.use_stmt) (src : scope) (smu : Ast.module_unit) =
  let import_var local remote =
    match Hashtbl.find_opt src.vars remote with
    | Some ((owner, _) as target) when owner = u.Ast.u_module ->
        Hashtbl.replace s.vars local target
    | _ -> ()
  in
  let import_sub local remote =
    match Hashtbl.find_opt src.subs remote with
    | Some cands ->
        let owned = List.filter (fun c -> c.c_module = u.Ast.u_module) cands in
        if owned <> [] then Hashtbl.replace s.subs local owned
    | None -> ()
  in
  match u.Ast.u_only with
  | Some pairs ->
      List.iter
        (fun (local, remote) ->
          import_var local remote;
          import_sub local remote)
        pairs
  | None ->
      List.iter
        (fun (d : Ast.decl) -> import_var d.Ast.d_name d.Ast.d_name)
        smu.Ast.m_decls;
      List.iter
        (fun (sp : Ast.subprogram) -> import_sub sp.Ast.s_name sp.Ast.s_name)
        smu.Ast.m_subprograms;
      List.iter
        (fun (i : Ast.interface_def) ->
          if i.Ast.i_name <> "" then import_sub i.Ast.i_name i.Ast.i_name)
        smu.Ast.m_interfaces

let of_program (prog : Ast.program) : t =
  let scopes = Hashtbl.create 64 and units = Hashtbl.create 64 in
  List.iter
    (fun (mu : Ast.module_unit) ->
      Hashtbl.replace scopes mu.Ast.m_name (own_scope mu);
      Hashtbl.replace units mu.Ast.m_name mu)
    prog;
  List.iter
    (fun (mu : Ast.module_unit) ->
      let s = Hashtbl.find scopes mu.Ast.m_name in
      List.iter
        (fun (u : Ast.use_stmt) ->
          let m = u.Ast.u_module in
          match (Hashtbl.find_opt scopes m, Hashtbl.find_opt units m) with
          | Some src, Some smu -> import s u src smu
          | _ -> ())
        mu.Ast.m_uses)
    prog;
  scopes

let empty = { vars = Hashtbl.create 1; subs = Hashtbl.create 1 }

let scope t name = Option.value ~default:empty (Hashtbl.find_opt t name)
let var s name = Hashtbl.find_opt s.vars name
let callables s name = Option.value ~default:[] (Hashtbl.find_opt s.subs name)
