(* Facade: run the whole static analysis over a program.

   One call builds the symbol table, scopes and interprocedural
   summaries, then per subprogram a CFG, def/use facts, the
   reaching-definitions and liveness fixed points, and the lint
   diagnostics.  With [~strict_types:true] the resolver-backed type
   checker ({!Typecheck}) and call-contract checker ({!Callcheck}) run
   too.  The result also answers the integration question the rest of
   the pipeline asks: whether the independently derived def-use pairs
   agree with the metagraph (the differential oracle). *)

module MG = Rca_metagraph.Metagraph

type sub_analysis = {
  sa_module : string;
  sa_name : string;
  sa_scope : Scope.sub_scope;
  sa_cfg : Cfg.t;
  sa_flow : Dataflow.t;
}

type t = {
  program_scope : Scope.program_scope;
  resolution : Resolve.t;
  summaries : Scope.summaries;
  subs : sub_analysis list;
  diags : Diagnostics.diag list;
  strict_types : bool;
}

val analyze : ?strict_types:bool -> Rca_fortran.Ast.program -> t

val find_sub : t -> module_:string -> sub:string -> sub_analysis option

val check_oracle : t -> MG.t -> Oracle.report

(* The stable lint report; when an oracle report is supplied its summary
   is embedded under "oracle". *)
val report_json : ?oracle:Oracle.report -> t -> string

val errors : t -> Diagnostics.diag list
