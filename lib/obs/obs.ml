(* Domain-sharded counter registry. Registration (name -> id) is global
   and mutex-protected; the *values* live in per-domain shards reached
   through [Domain.DLS], so two domains incrementing the same counter
   never race. A worker domain drains its shard when it finishes
   ([drain_shard]) and the spawning domain folds it in ([absorb_shard])
   — the pool in [lib/parallel] does this in worker-index order, so
   merged totals are a function of the work performed, not of the
   schedule. *)

type counter = { c_id : int; c_name : string }

(* Per-domain value cells. The array grows on demand to the registered
   count; a missing cell reads as zero. *)
type shard_state = { mutable cvals : int array }

let shard_key = Domain.DLS.new_key (fun () -> { cvals = [||] })

let shard () = Domain.DLS.get shard_key

let on = Atomic.make false

let enabled () = Atomic.get on

let enable () = Atomic.set on true

let disable () = Atomic.set on false

let reg_mutex = Mutex.create ()

let locked f =
  Mutex.lock reg_mutex;
  match f () with
  | v -> Mutex.unlock reg_mutex; v
  | exception e -> Mutex.unlock reg_mutex; raise e

(* Registration table: name -> handle, plus the reverse list for
   snapshots. Ids are dense, assigned in registration order. *)
let counters : (string, counter) Hashtbl.t = Hashtbl.create 64

let counter_list : counter list ref = ref []

let n_counters = ref 0

let counter name =
  locked (fun () ->
    match Hashtbl.find_opt counters name with
    | Some c -> c
    | None ->
      let c = { c_id = !n_counters; c_name = name } in
      incr n_counters;
      Hashtbl.replace counters name c;
      counter_list := c :: !counter_list;
      c)

(* Grow the calling domain's cells up to the registered count. Reading
   [!n_counters] without the lock is fine: registration only grows the
   count, and the id we are about to index was published before the
   handle reached us. *)
let ccells id =
  let s = shard () in
  if id >= Array.length s.cvals then begin
    let n = max (id + 1) !n_counters in
    let nv = Array.make n 0 in
    Array.blit s.cvals 0 nv 0 (Array.length s.cvals);
    s.cvals <- nv
  end;
  s.cvals

let incr c =
  if Atomic.get on then begin
    let v = ccells c.c_id in
    v.(c.c_id) <- v.(c.c_id) + 1
  end

let add c n =
  if Atomic.get on then begin
    let v = ccells c.c_id in
    v.(c.c_id) <- v.(c.c_id) + n
  end

let peek c =
  let s = shard () in
  if c.c_id < Array.length s.cvals then s.cvals.(c.c_id) else 0

type snapshot = (string * int) list

let snapshot () =
  let cl = locked (fun () -> !counter_list) in
  List.sort
    (fun (a, _) (b, _) -> compare (a : string) b)
    (List.map (fun c -> (c.c_name, peek c)) cl)

let reset () =
  let s = shard () in
  Array.fill s.cvals 0 (Array.length s.cvals) 0

let find s name = Option.value (List.assoc_opt name s) ~default:0

type shard = int array

let drain_shard () =
  let cv = Array.copy (shard ()).cvals in
  reset ();
  cv

let absorb_shard d =
  let n = Array.length d in
  if n > 0 then begin
    let v = ccells (n - 1) in
    Array.iteri (fun id x -> v.(id) <- v.(id) + x) d
  end
