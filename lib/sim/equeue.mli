(** Unboxed 4-ary implicit min-heap: the simulator's event queue.

    Entries are ordered by a [float] priority (the virtual timestamp) with
    a monotonically increasing sequence number as tie-breaker, exactly the
    (priority, seq) total order of the seed's binary heap (kept beside
    the tests) — so the pop order of the two structures is identical on
    identical pushes, which is what keeps the replacement
    determinism-preserving (and what the QCheck oracle in [test_sim.ml]
    checks).

    Unlike that heap, entries are not boxed: priorities live in a flat
    [float array], sequence numbers in an [int array], and payloads in a
    parallel value array. Popping does no allocation ({!min_prio} +
    {!pop_min_exn}), the 4-ary layout halves the sift depth versus a
    binary heap, and vacated slots are overwritten with the [dummy] so a
    consumed payload (an event record, a closure, an envelope) never
    outlives its pop. *)

type 'a t

val create : dummy:'a -> unit -> 'a t
(** Fresh empty queue. [dummy] is stored into vacated slots so popped and
    cleared payloads are collectable; it must be a value the caller never
    needs back (a sentinel). *)

val length : 'a t -> int
val is_empty : 'a t -> bool

val push : 'a t -> priority:float -> 'a -> unit
(** Insert an entry. Amortized O(log4 n), allocation-free after the
    backing arrays have grown. *)

val next_seq : 'a t -> int
(** The sequence number the next {!push} will take — a monotone stamp of
    queue insertions (used by {!Hope_net.Network} to detect that nothing
    entered the queue between two sends). *)

val min_prio : 'a t -> float
(** Priority of the minimum entry. @raise Invalid_argument when empty. *)

val pop_min_exn : 'a t -> 'a
(** Remove and return the minimum entry's payload (FIFO among equal
    priorities), clearing its slot. Allocation-free.
    @raise Invalid_argument when empty. *)

val pop : 'a t -> (float * 'a) option
(** Allocating convenience wrapper around {!min_prio} + {!pop_min_exn}
    (tests and non-hot callers). *)

val peek : 'a t -> (float * 'a) option
(** Return without removing the minimum entry. *)

val clear : 'a t -> unit
(** Drop all entries, overwriting every occupied slot with the dummy, and
    reset the sequence counter. *)
