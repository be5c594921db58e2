(* Parallel-array 4-ary implicit heap. Index 0 is the root; the children
   of [i] are [4i+1 .. 4i+4] and its parent is [(i-1)/4]. The three arrays
   always have the same capacity and describe the same entries. *)

type 'a t = {
  mutable prios : float array;
  mutable seqs : int array;
  mutable vals : 'a array;
  mutable size : int;
  mutable next_seq : int;
  dummy : 'a;
}

let create ~dummy () =
  { prios = [||]; seqs = [||]; vals = [||]; size = 0; next_seq = 0; dummy }

let length q = q.size
let is_empty q = q.size = 0
let next_seq q = q.next_seq

(* [before q i j]: does the entry at slot [i] pop before the one at [j]?
   Same total order as the seed's heap: priority, then insertion sequence. *)
let before q i j =
  q.prios.(i) < q.prios.(j) || (q.prios.(i) = q.prios.(j) && q.seqs.(i) < q.seqs.(j))

let grow q =
  let capacity = max 16 (2 * Array.length q.vals) in
  let prios = Array.make capacity 0.0 in
  let seqs = Array.make capacity 0 in
  let vals = Array.make capacity q.dummy in
  Array.blit q.prios 0 prios 0 q.size;
  Array.blit q.seqs 0 seqs 0 q.size;
  Array.blit q.vals 0 vals 0 q.size;
  q.prios <- prios;
  q.seqs <- seqs;
  q.vals <- vals

(* Sifting moves entries into the hole instead of swapping (3 stores per
   level, not 6 loads + 6 stores). Both loops are top-level recursive
   functions — a local [let rec] would allocate a closure per call. *)

(* Hole at [i] sifting up for a pending entry (priority, seq); returns
   the slot where the entry belongs. The float stays the caller's
   already-boxed argument, so no fresh boxing on the way up. *)
let rec hole_up q i priority seq =
  if i = 0 then 0
  else begin
    let parent = (i - 1) / 4 in
    let pp = q.prios.(parent) in
    if priority < pp || (priority = pp && seq < q.seqs.(parent)) then begin
      q.prios.(i) <- pp;
      q.seqs.(i) <- q.seqs.(parent);
      q.vals.(i) <- q.vals.(parent);
      hole_up q parent priority seq
    end
    else i
  end

(* Hole at [i] sifting down against the entry parked at slot [n] (the
   displaced last element, compared in place so its priority is never
   re-boxed); heap range is [0, n). Returns the entry's final slot. *)
let rec hole_down q i n =
  let first = (4 * i) + 1 in
  if first >= n then i
  else begin
    let last = if first + 3 < n - 1 then first + 3 else n - 1 in
    let m = ref first in
    for c = first + 1 to last do
      if before q c !m then m := c
    done;
    let m = !m in
    if before q m n then begin
      q.prios.(i) <- q.prios.(m);
      q.seqs.(i) <- q.seqs.(m);
      q.vals.(i) <- q.vals.(m);
      hole_down q m n
    end
    else i
  end

let push q ~priority value =
  if q.size = Array.length q.vals then grow q;
  let seq = q.next_seq in
  q.next_seq <- seq + 1;
  let n = q.size in
  q.size <- n + 1;
  let hole = hole_up q n priority seq in
  q.prios.(hole) <- priority;
  q.seqs.(hole) <- seq;
  q.vals.(hole) <- value

let min_prio q =
  if q.size = 0 then invalid_arg "Equeue.min_prio: empty";
  q.prios.(0)

let pop_min_exn q =
  if q.size = 0 then invalid_arg "Equeue.pop_min_exn: empty";
  let v = q.vals.(0) in
  let n = q.size - 1 in
  q.size <- n;
  if n > 0 then begin
    (* the displaced last entry waits at slot [n] while the root hole
       sifts down past every child that pops before it *)
    let hole = hole_down q 0 n in
    q.prios.(hole) <- q.prios.(n);
    q.seqs.(hole) <- q.seqs.(n);
    q.vals.(hole) <- q.vals.(n);
    q.vals.(n) <- q.dummy
  end
  else q.vals.(0) <- q.dummy;
  v

let pop q =
  if q.size = 0 then None
  else begin
    let prio = min_prio q in
    Some (prio, pop_min_exn q)
  end

let peek q = if q.size = 0 then None else Some (q.prios.(0), q.vals.(0))

let clear q =
  Array.fill q.vals 0 q.size q.dummy;
  q.size <- 0;
  q.next_seq <- 0
