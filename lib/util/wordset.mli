(** Flat word bitsets for hot loops.

    A subset of [{0, …, n-1}] is an [int array] of [⌈n / bits⌉] words, each
    holding {!bits} members.  The representation is exposed so tight
    loops can combine rows word by word (union, intersection, "new
    members") without allocating.  [Kf_graph.Dag] keeps its transitive
    closure in this form, and the structural operators of the search
    read it, with their per-kernel adjacency and kinship rows, as is. *)

type t = int array

val bits : int
(** Members per word (62: every single-bit word is a positive [int]). *)

val create : int -> t
(** [create n] is the empty subset of [{0, …, n-1}]. *)

val mem : t -> int -> bool
val add : t -> int -> unit
val remove : t -> int -> unit
(** [mem], [add] and [remove] raise [Invalid_argument] on a negative
    index or one past the last word; an index past [n] but inside the
    last word is not caught. *)

val of_list : int -> int list -> t

val union_into : t -> t -> unit
(** [union_into dst src] adds all members of [src] to [dst].
    @raise Invalid_argument when the two differ in length. *)

val lowest : int -> int
(** [lowest w] is the index of the lowest set bit of the nonzero word
    [w]. *)

val iter : (int -> unit) -> t -> unit
(** Members in increasing order; zero words cost one test each. *)

val to_list : t -> int list
(** Members in increasing order. *)
