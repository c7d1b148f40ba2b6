(** Original GPU kernels.

    A kernel is a stencil sweep over the grid: one thread per horizontal
    site, sequential vertical loop, touching a set of arrays with given
    stencil patterns.  The record carries exactly the information of the
    paper's Table III metadata (the rest of Table III is derived from the
    program context by {!Metadata}). *)

type t = {
  id : int;
  name : string;
  accesses : Access.t list;
  extra_flops_per_site : float;
      (** per-site flops not attributable to a specific array (scalar
          arithmetic, loop overhead) *)
  registers_per_thread : int;  (** the paper's [R_T], from compiler/profiler *)
  addr_registers : int;  (** the paper's [R_Adr]: address/index registers *)
  active_fraction : float;
      (** fraction of the block's threads doing useful work — below 1.0
          when the original CPU loop bounds were narrower than the block
          tile (paper §II-C); Table III's [T_B] is this times [Thr] *)
}

val make :
  id:int ->
  name:string ->
  accesses:Access.t list ->
  ?extra_flops_per_site:float ->
  ?registers_per_thread:int ->
  ?addr_registers:int ->
  ?active_fraction:float ->
  unit ->
  t
(** Defaults: no extra flops, 32 registers per thread, 6 address
    registers, all threads active.
    @raise Invalid_argument on empty accesses, duplicate array references,
    negative or non-finite flops, bad register counts, or an
    [active_fraction] outside (0,1] (NaN included). *)

val flops_per_site : t -> float
(** Total per-site flop count: sum over accesses plus
    [extra_flops_per_site]. *)

val total_flops : t -> Grid.t -> float
(** The paper's [Fl]: flops for a full sweep. *)

val reads : t -> Access.t list
val writes : t -> Access.t list

val touches : t -> int -> bool
(** [touches k a] is true when kernel [k] references array id [a]. *)

val access_for : t -> int -> Access.t option
(** The access record for a given array id, if referenced. *)

val arrays : t -> int list
(** Referenced array ids, each once, in access order. *)

val thread_load : t -> int -> int
(** [thread_load k a] is the paper's [ThrLD(a)]: the number of distinct
    threads of a block that touch the same interior element of array [a] —
    the point count of the read pattern (1 for write-only references). *)

val max_read_radius : t -> int
(** Widest horizontal stencil radius over all read accesses. *)

val uses_smem : t -> bool
(** True when some array has a thread load above one: the paper assumes
    (§VI-B.2) that such original kernels already stage that array in shared
    memory. *)

val smem_staged_arrays : t -> int list
(** Array ids the original kernel stages in SMEM (thread load > 1). *)

val active_threads : t -> Grid.t -> int
(** Table III's [T_B]: [ceil (active_fraction * threads_per_block)]. *)

val pp : Format.formatter -> t -> unit
