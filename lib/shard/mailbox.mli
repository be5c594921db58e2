(** Lock-free single-producer single-consumer bounded ring.

    One mailbox per {e directed} shard pair carries cross-shard Time
    Warp messages (positive and anti). SPSC keeps it wait-free on both
    ends: the producer owns [tail], the consumer owns [head], and the
    OCaml 5 memory model's release/acquire pairing on [Atomic] cursor
    updates publishes slot writes without locks. FIFO per pair is the
    load-bearing property — an anti-message pushed after its positive
    can never overtake it, so the Time Warp core always finds the
    positive already queued and annihilates it with a tombstone. The
    core's simulated wire keeps the same per-pair FIFO order. *)

type 'a t

val create : ?capacity:int -> dummy:'a -> unit -> 'a t
(** [create ~dummy ()] makes an empty ring. [capacity] (default 2048)
    is rounded up to a power of two. [dummy] fills vacant slots so
    popped elements don't linger reachable.
    @raise Invalid_argument if [capacity <= 0]. *)

val capacity : 'a t -> int

val length : 'a t -> int
(** Racy size snapshot (exact when called by the producer or consumer
    with the other side quiescent). *)

val high_water : 'a t -> int
(** Peak occupancy observed at push time. Maintained (and exactly
    readable) by the producer; other domains read it post-run. *)

val is_empty : 'a t -> bool

val try_push : 'a t -> 'a -> bool
(** Producer only. [false] iff the ring is full. *)

exception Closed

val push : 'a t -> 'a -> poison:bool Atomic.t -> while_waiting:(unit -> unit) -> unit
(** Producer only. Spins until space frees, calling [while_waiting]
    between attempts — the shard runtime uses it to unload its own
    inbound rings, which breaks the two-shards-pushing-into-each-other
    deadlock.
    @raise Closed if the ring is full and [poison] is set: the consumer
    may be dead, so waiting could last forever. *)

val pop : 'a t -> 'a option
(** Consumer only. *)
