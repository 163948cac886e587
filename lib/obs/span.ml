type arg =
  | Int of int
  | Float of float
  | Str of string
  | Bool of bool

type phase = Begin | End | Instant | Counter

type event = {
  name : string;
  phase : phase;
  ts : int;
  args : (string * arg) list;
}

type handle = int

let null_handle = 0

(* {1 Enabling}

   The tracer carries its own flag, independent of [Obs.on]: counters
   are cheap enough to run over a whole bench sweep, while span capture
   buffers events and is usually scoped to a single traced run. The
   flag and the buffer cap are global configuration ([Atomic]); all
   recording state below is per-domain. *)

let on = Atomic.make false

let enabled () = Atomic.get on

let enable () = Atomic.set on true

let disable () = Atomic.set on false

(* Debug mode: unbalanced span exits raise instead of saturating. Off
   in release so production tracing can never throw. *)
let debug_on = Atomic.make false

let debug () = Atomic.get debug_on

let set_debug b = Atomic.set debug_on b

let capacity = Atomic.make 262_144

let set_capacity n =
  if n < 1 then invalid_arg "Span.set_capacity: capacity must be >= 1";
  Atomic.set capacity n

(* {1 Scope hooks}

   One optional global pair of callbacks, fired on every span open and
   close while capture is enabled. This is the seam [Profile] (the
   resource-attribution layer) plugs into: it cannot live inside this
   module without coupling the tracer to [Gc], and it cannot wrap every
   call site. Hooks see exactly the scopes the buffer sees — including
   the forced closes of a saturating [exit] — so a hook that maintains
   its own stack stays in lockstep with the tracer's. [None] (the
   default) costs one atomic load per scope. *)

type scope_hooks = {
  on_scope_enter : string -> unit;
  on_scope_exit : string -> unit;
}

let hooks : scope_hooks option Atomic.t = Atomic.make None

let set_scope_hooks h = Atomic.set hooks h

let hook_enter name =
  match Atomic.get hooks with
  | Some h -> h.on_scope_enter name
  | None -> ()

let hook_exit name =
  match Atomic.get hooks with
  | Some h -> h.on_scope_exit name
  | None -> ()

(* {1 Per-domain recorder}

   Every domain records into its own buffer with its own tick clock and
   nesting stack, reached through [Domain.DLS] — concurrent spans from
   a domain pool never interleave mid-nest. A worker's buffer is drained
   at pool join ([drain_events]) and appended to the spawning domain's
   buffer ([absorb_events]) with fresh local stamps, so the merged
   timeline stays monotonic and each worker's nesting arrives intact.

   The tick default makes timestamps a pure function of the (local)
   event sequence — two identical seeded single-domain runs serialize
   identically. [set_clock] installs an external integer clock (the
   simulator plugs its cycle counter in), [use_tick_clock] switches
   back, jumping the tick past the largest stamp already emitted so the
   timeline stays monotonic. *)

type state = {
  mutable tick : int;
  mutable last_ts : int;
  mutable custom_clock : (unit -> int) option;
  mutable buf : event array;
  mutable len : int;
  mutable dropped_events : int;
  mutable stack : string list;
  mutable depth : int;
}

let dummy = { name = ""; phase = Instant; ts = 0; args = [] }

let fresh_state () = {
  tick = 0;
  last_ts = 0;
  custom_clock = None;
  buf = Array.make 1024 dummy;
  len = 0;
  dropped_events = 0;
  stack = [];
  depth = 0;
}

let state_key = Domain.DLS.new_key fresh_state

let st () = Domain.DLS.get state_key

let set_clock f = (st ()).custom_clock <- Some f

let use_tick_clock () =
  let s = st () in
  s.custom_clock <- None;
  if s.tick <= s.last_ts then s.tick <- s.last_ts + 1

let now () =
  let s = st () in
  match s.custom_clock with Some f -> f () | None -> s.tick

(* Events past the cap are counted as dropped rather than forcing an
   unbounded trace. The stack bookkeeping keeps running even when
   events are dropped, so nesting stays consistent. *)
let record s name phase args =
  let ts =
    match s.custom_clock with
    | Some f -> f ()
    | None ->
      let t = s.tick in
      s.tick <- t + 1;
      t
  in
  if ts > s.last_ts then s.last_ts <- ts;
  let cap = Atomic.get capacity in
  if s.len >= Array.length s.buf && Array.length s.buf < cap then begin
    let nlen = min cap (2 * Array.length s.buf) in
    let nbuf = Array.make nlen dummy in
    Array.blit s.buf 0 nbuf 0 s.len;
    s.buf <- nbuf
  end;
  (* The cap may sit below the physical array size (set_capacity after
     the buffer already grew, or below the initial 1024). *)
  if s.len < cap && s.len < Array.length s.buf then begin
    s.buf.(s.len) <- { name; phase; ts; args };
    s.len <- s.len + 1
  end
  else s.dropped_events <- s.dropped_events + 1

(* {1 Nesting}

   [enter] pushes the span name and returns its depth as the handle;
   [exit] must receive the handle of the innermost open span. A
   mismatch raises under [debug] and saturates otherwise: exits
   with no matching open span are ignored, exits over still-open
   children close the children first. Totals are never corrupted
   either way. *)

let push s name =
  s.stack <- name :: s.stack;
  s.depth <- s.depth + 1;
  hook_enter name

let pop_record s args =
  match s.stack with
  | [] -> ()
  | name :: rest ->
    s.stack <- rest;
    s.depth <- s.depth - 1;
    record s name End args;
    hook_exit name

let enter ?(args = []) name =
  if not (Atomic.get on) then null_handle
  else begin
    let s = st () in
    record s name Begin args;
    push s name;
    s.depth
  end

let exit ?(args = []) h =
  if Atomic.get on && h > null_handle then begin
    let s = st () in
    if s.depth < h then begin
      if debug () then
        invalid_arg "Span.exit: span already closed (double exit)"
    end
    else begin
      if s.depth > h && debug () then
        invalid_arg "Span.exit: unclosed child spans";
      while s.depth > h do
        pop_record s []
      done;
      pop_record s args
    end
  end

let with_ ?args name f =
  if not (Atomic.get on) then f ()
  else begin
    let h = enter ?args name in
    match f () with
    | r ->
      exit h;
      r
    | exception e ->
      exit ~args:[ ("exception", Str (Printexc.to_string e)) ] h;
      raise e
  end

let instant ?(args = []) name =
  if Atomic.get on then record (st ()) name Instant args

let counter name args =
  if Atomic.get on then record (st ()) name Counter args

let reset () =
  let s = st () in
  s.len <- 0;
  s.dropped_events <- 0;
  s.tick <- 0;
  s.last_ts <- 0;
  s.custom_clock <- None;
  s.stack <- [];
  s.depth <- 0

let events () =
  let s = st () in
  Array.to_list (Array.sub s.buf 0 s.len)

let num_events () = (st ()).len

let dropped () = (st ()).dropped_events

let current_depth () = (st ()).depth

(* {1 Shard transfer}

   [drain_events] takes (and clears) the calling domain's buffer;
   [absorb_events] re-records each event on the calling domain with a
   fresh local stamp, preserving order. Worker stamps are meaningless on
   the spawner's timeline (each worker ticks from zero), so re-stamping
   keeps the merged trace monotonic; each worker's events arrive as a
   contiguous, well-nested block. Dropped-event counts travel too. *)

type drained = event list * int

let drain_events () =
  let s = st () in
  let evs = Array.to_list (Array.sub s.buf 0 s.len) in
  let dropped = s.dropped_events in
  s.len <- 0;
  s.dropped_events <- 0;
  s.stack <- [];
  s.depth <- 0;
  (evs, dropped)

let absorb_events (evs, dropped) =
  let s = st () in
  List.iter (fun e -> record s e.name e.phase e.args) evs;
  s.dropped_events <- s.dropped_events + dropped

(* {1 Chrome trace-event serialization}

   The JSON Array Format of the Trace Event spec, wrapped in the object
   form ({"traceEvents": [...]}) that Perfetto and chrome://tracing both
   import. Timestamps are the deterministic integer stamps above,
   declared as microseconds (the unit the format mandates); durations
   therefore read in ticks/cycles, which is exactly what a reproducible
   trace wants. [nue_obs] depends on nothing, so the escaping is local
   rather than borrowed from the pipeline's JSON module. *)

let escape s =
  let b = Buffer.create (String.length s + 2) in
  Buffer.add_char b '"';
  String.iter
    (fun c ->
       match c with
       | '"' -> Buffer.add_string b "\\\""
       | '\\' -> Buffer.add_string b "\\\\"
       | '\n' -> Buffer.add_string b "\\n"
       | '\r' -> Buffer.add_string b "\\r"
       | '\t' -> Buffer.add_string b "\\t"
       | c when Char.code c < 0x20 ->
         Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
       | c -> Buffer.add_char b c)
    s;
  Buffer.add_char b '"';
  Buffer.contents b

let arg_value b = function
  | Int i -> Buffer.add_string b (string_of_int i)
  | Float f ->
    if Float.is_nan f || f = Float.infinity || f = Float.neg_infinity then
      Buffer.add_string b "null"
    else Buffer.add_string b (Printf.sprintf "%.12g" f)
  | Str s -> Buffer.add_string b (escape s)
  | Bool v -> Buffer.add_string b (if v then "true" else "false")

let add_args b args =
  Buffer.add_string b {|,"args":{|};
  List.iteri
    (fun i (k, v) ->
       if i > 0 then Buffer.add_char b ',';
       Buffer.add_string b (escape k);
       Buffer.add_char b ':';
       arg_value b v)
    args;
  Buffer.add_char b '}'

let add_event b e =
  let ph =
    match e.phase with
    | Begin -> "B"
    | End -> "E"
    | Instant -> "i"
    | Counter -> "C"
  in
  Buffer.add_string b {|{"name":|};
  Buffer.add_string b (escape e.name);
  Buffer.add_string b (Printf.sprintf {|,"cat":"nue","ph":"%s","ts":%d|} ph e.ts);
  Buffer.add_string b {|,"pid":1,"tid":1|};
  if e.phase = Instant then Buffer.add_string b {|,"s":"t"|};
  (match (e.phase, e.args) with
   | End, [] -> ()
   | _ -> add_args b e.args);
  Buffer.add_char b '}'

let to_chrome_string () =
  let s = st () in
  let b = Buffer.create (256 + (96 * s.len)) in
  Buffer.add_string b {|{"traceEvents":[|};
  for i = 0 to s.len - 1 do
    if i > 0 then Buffer.add_char b ',';
    add_event b s.buf.(i)
  done;
  Buffer.add_string b
    (Printf.sprintf
       {|],"displayTimeUnit":"ms","otherData":{"clock":"deterministic-ticks","dropped_events":%d}}|}
       s.dropped_events);
  Buffer.contents b

(* {1 Flamegraph summary}

   Inclusive tick totals aggregated by span-name stack path, rendered as
   an indented tree sorted by total descending (name as tie-break, so
   the rendering is deterministic). *)

type node = {
  mutable total : int;
  mutable calls : int;
  children : (string, node) Hashtbl.t;
}

let fresh_node () = { total = 0; calls = 0; children = Hashtbl.create 4 }

let child_of n name =
  match Hashtbl.find_opt n.children name with
  | Some c -> c
  | None ->
    let c = fresh_node () in
    Hashtbl.replace n.children name c;
    c

let flamegraph ?(width = 80) () =
  let s = st () in
  let root = fresh_node () in
  (* (node, begin ts) for every open span while walking the buffer. *)
  let walk_stack = ref [ (root, 0) ] in
  for i = 0 to s.len - 1 do
    let e = s.buf.(i) in
    match e.phase with
    | Begin ->
      let parent = fst (List.hd !walk_stack) in
      walk_stack := (child_of parent e.name, e.ts) :: !walk_stack
    | End ->
      (match !walk_stack with
       | (n, t0) :: (_ :: _ as rest) ->
         n.total <- n.total + (e.ts - t0);
         n.calls <- n.calls + 1;
         walk_stack := rest
       | _ -> () (* unbalanced End: ignore *))
    | Instant | Counter -> ()
  done;
  let grand_total =
    Hashtbl.fold (fun _ c acc -> acc + c.total) root.children 0
  in
  let b = Buffer.create 512 in
  let rec render indent n =
    let kids =
      Hashtbl.fold (fun name c acc -> (name, c) :: acc) n.children []
    in
    let kids =
      List.sort
        (fun (na, a) (nb, bb) ->
           match compare bb.total a.total with
           | 0 -> compare na nb
           | c -> c)
        kids
    in
    List.iter
      (fun (name, c) ->
         let label = String.make (2 * indent) ' ' ^ name in
         let label =
           if String.length label > width - 28 then
             String.sub label 0 (width - 28)
           else label
         in
         let pct =
           if grand_total = 0 then 0.0
           else 100.0 *. float_of_int c.total /. float_of_int grand_total
         in
         Buffer.add_string b
           (Printf.sprintf "%-*s %10d ticks %6dx %5.1f%%\n" (width - 28)
              label c.total c.calls pct);
         render (indent + 1) c)
      kids
  in
  if grand_total = 0 && Hashtbl.length root.children = 0 then
    Buffer.add_string b "(no spans recorded)\n"
  else render 0 root;
  Buffer.contents b
