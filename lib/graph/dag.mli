(** Directed acyclic graphs over integer nodes [0 .. n-1].

    The dependency and order-of-execution graphs of the paper (Figs. 1-2)
    are DAGs over kernels; this module provides construction, cycle
    detection, topological order and the reachability machinery that the
    path-closure constraint (paper Eq. 1.3) needs. *)

type t

val create : int -> t
(** [create n] is the edgeless graph on [n] nodes. *)

val num_nodes : t -> int

val add_edge : t -> int -> int -> unit
(** [add_edge g u v] adds the edge [u -> v].  Duplicate edges are ignored;
    self-loops raise [Invalid_argument].  Adding edges invalidates cached
    reachability (it is recomputed lazily). *)

val has_edge : t -> int -> int -> bool
val succs : t -> int -> int list
val preds : t -> int -> int list
val num_edges : t -> int

val is_acyclic : t -> bool

val topo_sort : t -> int list
(** A topological order (Kahn's algorithm), stable with respect to node
    index among ready nodes.  @raise Invalid_argument if the graph has a
    cycle. *)

val reaches : t -> int -> int -> bool
(** [reaches g u v] is true when a directed path [u -> … -> v] exists
    ([reaches g u u = true]).  First use computes the full transitive
    closure (word bitset per node); later queries are O(1). *)

val on_some_path : t -> int -> int -> int list
(** [on_some_path g a b] is the set of nodes lying on at least one directed
    path from [a] to [b], including the endpoints when a path exists, [[]]
    when [b] is unreachable from [a].  These are exactly the kernels the
    paper's constraint (1.3) forces into the same group as [a] and [b]. *)

val path_closure : t -> Kf_util.Bitset.t -> Kf_util.Bitset.t
(** [path_closure g s] is the least superset of [s] closed under
    [on_some_path]: for every ordered pair of members with a connecting
    path, all intermediate nodes are members too. *)

val ancestors : t -> int -> Kf_util.Bitset.t
val descendants : t -> int -> Kf_util.Bitset.t

val reach_rows : t -> Kf_util.Wordset.t array
(** [(reach_rows g).(u)] is the descendants of [u], itself included: the
    cached transitive closure itself, not a copy.  Read-only; adding an
    edge replaces the cache and leaves rows already handed out as they
    were.  @raise Invalid_argument if the graph has a cycle. *)

val coreach_rows : t -> Kf_util.Wordset.t array
(** The ancestors of every node, itself included, like {!reach_rows}. *)

val transpose : t -> t

val of_edges : int -> (int * int) list -> t

val pp : Format.formatter -> t -> unit
