(* Lock-free SPSC bounded ring for one directed shard pair.

   Exactly one producer domain pushes and exactly one consumer domain
   pops, so a slot array plus two monotone int cursors suffice — no CAS
   loops, no locks, and (unlike an MPMC queue) no per-element
   allocation. Publication safety comes from the OCaml 5 memory model:
   the producer writes the slot *then* [Atomic.set]s [tail]; a consumer
   that observes the new [tail] via [Atomic.get] is guaranteed to see
   the slot write (release/acquire pairing on the atomic). Symmetrically
   the consumer scrubs the slot with [dummy] before publishing [head],
   so the producer never resurrects a popped element and committed
   payloads don't leak through the ring's floating garbage.

   Cursors are plain tagged ints and never wrap in practice (2^62
   pushes); indices are [cursor land mask]. *)

type 'a t = {
  slots : 'a array;
  mask : int;
  dummy : 'a;
  head : int Atomic.t;  (* next slot to pop; advanced only by consumer *)
  tail : int Atomic.t;  (* next slot to fill; advanced only by producer *)
  mutable hw : int;  (* occupancy high-water; written by producer only *)
}

let create ?(capacity = 2048) ~dummy () =
  if capacity <= 0 then invalid_arg "Mailbox.create: capacity must be positive";
  (* round up to a power of two so index extraction is a mask *)
  let cap = ref 1 in
  while !cap < capacity do
    cap := !cap * 2
  done;
  {
    slots = Array.make !cap dummy;
    mask = !cap - 1;
    dummy;
    head = Atomic.make 0;
    tail = Atomic.make 0;
    hw = 0;
  }

let capacity t = t.mask + 1
let high_water t = t.hw

let length t =
  (* racy snapshot; exact only when the caller is producer or consumer *)
  Atomic.get t.tail - Atomic.get t.head

let is_empty t = length t <= 0

let try_push t x =
  let tail = Atomic.get t.tail in
  let head = Atomic.get t.head in
  if tail - head > t.mask then false
  else begin
    t.slots.(tail land t.mask) <- x;
    let occ = tail - head + 1 in
    if occ > t.hw then t.hw <- occ;
    (* release: publishes the slot write above to the consumer *)
    Atomic.set t.tail (tail + 1);
    true
  end

exception Closed

let push t x ~poison ~while_waiting =
  while not (try_push t x) do
    if Atomic.get poison then raise Closed;
    while_waiting ();
    Domain.cpu_relax ()
  done

let pop t =
  let head = Atomic.get t.head in
  (* acquire: a tail that covers [head] publishes the slot write *)
  let tail = Atomic.get t.tail in
  if tail - head <= 0 then None
  else begin
    let i = head land t.mask in
    let x = t.slots.(i) in
    t.slots.(i) <- t.dummy;
    Atomic.set t.head (head + 1);
    Some x
  end
