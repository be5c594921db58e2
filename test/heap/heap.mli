(** Monomorphic-priority binary min-heap, formerly the simulator event
    queue and now the reference implementation the unboxed
    [Hope_sim.Equeue] is checked against (the QCheck oracle in
    [test_sim.ml]) and the baseline of the bench [events] group: same
    (priority, seq) total order, so the two structures pop identically
    on identical pushes.

    Entries are ordered by a [float] priority (the virtual timestamp) with a
    monotonically increasing sequence number as tie-breaker, so events
    scheduled at the same instant pop in insertion order. This determinism
    matters: the whole simulator must replay identically from a seed.

    {!pop} and {!clear} scrub vacated slots so consumed payloads don't stay
    reachable through the backing array. *)

type 'a t
(** A heap of ['a] payloads keyed by float priority. *)

val create : unit -> 'a t
(** Fresh empty heap. *)

val length : 'a t -> int
(** Number of queued entries. *)

val is_empty : 'a t -> bool
(** [is_empty h] iff no entries are queued. *)

val push : 'a t -> priority:float -> 'a -> unit
(** Insert an entry. Amortized O(log n). *)

val pop : 'a t -> (float * 'a) option
(** Remove and return the minimum-priority entry (FIFO among ties). *)

val peek : 'a t -> (float * 'a) option
(** Return without removing the minimum-priority entry. *)

val clear : 'a t -> unit
(** Drop all entries. *)
