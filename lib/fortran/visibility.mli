(** Fortran name visibility: which module variables and procedures a name
    denotes inside each module (paper Section 4.2).

    This is the one table that the metagraph builder, the analyzer's
    symbol resolver and its scopes all read, so an edge of the metagraph
    and a def-use pair of the analyzer can never disagree on what a name
    means.  Per module it holds:
    - the visible variables: the module's own declarations, then
      use-association imports honouring [only] lists and
      [local => remote] renames;
    - the visible callables: the module's own subprograms, its named
      interfaces (every candidate procedure it owns), then imported
      subprograms and interfaces.

    Imports are not chained: a module imports only names its source
    module itself owns, whatever that module imports in turn.  A [use]
    of a module the program lacks (filtered away by the build or
    coverage filter) imports nothing.  When two modules share a name,
    the last one registered owns the name's table, and the [use]
    statements of both add to it. *)

type callable = { c_module : string; c_sub : Ast.subprogram }
(** A candidate procedure: the owning module and its subprogram. *)

val is_intrinsic : string -> bool
(** Whether the name is an intrinsic the front end localizes per call
    site ([min], [max], [sqrt], ...) rather than resolving as an array. *)

type t
type scope

val of_program : Ast.program -> t

val scope : t -> string -> scope
(** The names visible in the given module; empty for a module the
    program lacks. *)

val var : scope -> string -> (string * string) option
(** A visible module variable as (owning module, name in the owner). *)

val callables : scope -> string -> callable list
(** Candidate procedures of a visible callable name, [[]] when none. *)
