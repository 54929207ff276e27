type t = {
  c : Compiled.t;
  cs : Compiled.cstate;
  held : Compiled.cstate Lazy.t;  (* the last stable state [witness] reached *)
  procs : int;
  mutable budget : int;
  mutable vanishing : int;
  (* The move stack: the moves each open branch point has still to
     fire, with their rates (0 for an immediate move), the offsets and
     numbers of their participants and the participants themselves. *)
  mutable rates : float array;
  mutable starts : int array;
  mutable lens : int array;
  mutable n_moves : int;
  mutable part_procs : int array;
  mutable part_trs : int array;
  mutable n_parts : int;
}

let create ~budget (net : Network.t) =
  let c = Compiled.compile net in
  {
    c;
    cs = Compiled.scratch c;
    held = lazy (Compiled.scratch c);
    procs = Int.max 1 (Array.length net.procs);
    budget;
    vanishing = 0;
    rates = [||];
    starts = [||];
    lens = [||];
    n_moves = 0;
    part_procs = [||];
    part_trs = [||];
    n_parts = 0;
  }

exception Exhausted of { in_closure : bool }

let spend w ~in_closure =
  w.budget <- w.budget - 1;
  if w.budget < 0 then raise (Exhausted { in_closure })

let charge w = spend w ~in_closure:false

let grow a n x =
  let b = Array.make (Int.max n (2 * Array.length a)) x in
  Array.blit a 0 b 0 (Array.length a);
  b

(* Room on the move stack for one more move of up to [w.procs]
   participants. *)
let reserve w =
  if w.n_moves = Array.length w.lens then begin
    w.rates <- grow w.rates (w.n_moves + 1) 0.0;
    w.starts <- grow w.starts (w.n_moves + 1) 0;
    w.lens <- grow w.lens (w.n_moves + 1) 0
  end;
  if w.n_parts + w.procs > Array.length w.part_procs then begin
    w.part_procs <- grow w.part_procs (w.n_parts + w.procs) 0;
    w.part_trs <- grow w.part_trs (w.n_parts + w.procs) 0
  end

let push w rate len =
  w.rates.(w.n_moves) <- rate;
  w.starts.(w.n_moves) <- w.n_parts;
  w.lens.(w.n_moves) <- len;
  w.n_moves <- w.n_moves + 1;
  w.n_parts <- w.n_parts + len

(* Push the scratch state's immediate moves (guarded, window holding 0)
   in the interpreter's order; their number. *)
let push_immediate w =
  let c = w.c and cs = w.cs in
  Compiled.set_rates c cs;
  Compiled.invariant_window c cs;
  let k = ref 0 in
  for i = 0 to Compiled.discrete c cs - 1 do
    if Compiled.window_mem cs i 0.0 then begin
      reserve w;
      push w 0.0 (Compiled.copy_move cs i w.part_procs w.part_trs w.n_parts);
      incr k
    end
  done;
  !k

let push_markovian w =
  let cs = w.cs in
  let n = Compiled.markovian w.c cs in
  let rates = Compiled.markov_buf cs in
  for i = 0 to n - 1 do
    reserve w;
    w.part_procs.(w.n_parts) <- Compiled.markov_proc cs i;
    w.part_trs.(w.n_parts) <- Compiled.markov_tr cs i;
    push w rates.(i) 1
  done

(* Apply move [m] of the stack to the scratch. *)
let fire w m =
  Compiled.apply_parts w.c w.cs w.part_procs w.part_trs w.starts.(m) w.lens.(m)

let pop w m0 p0 =
  w.n_moves <- m0;
  w.n_parts <- p0

(* After an exception: back to [depth] snapshots and the stack's
   [m0]/[p0]. *)
let unwind w depth m0 p0 =
  while Compiled.depth w.cs > depth do
    Compiled.drop w.cs
  done;
  pop w m0 p0

(* Fire each move pushed since the stack held [m0] moves and [p0]
   participants from the scratch's state, saved once and restored before
   every move but the first, and fold [f m] over the successors, [m]
   the move; then pop them.  On an exception, drop back to the entry's
   snapshots and stack. *)
let branch w m0 p0 f acc =
  let cs = w.cs in
  let depth = Compiled.depth cs in
  match
    Compiled.save cs;
    let acc = ref acc in
    for m = m0 to w.n_moves - 1 do
      if m > m0 then Compiled.restore cs;
      fire w m;
      acc := f m !acc
    done;
    !acc
  with
  | acc ->
    Compiled.drop cs;
    pop w m0 p0;
    acc
  | exception e ->
    unwind w depth m0 p0;
    raise e

let reset w = Compiled.reset w.c w.cs

let predicate w e =
  let f = (Compiled.compile_formula w.c e).f_bool in
  fun () -> f w.cs

let loc w p = Compiled.loc w.cs p
let value w v = Compiled.value w.cs v
let time w = Compiled.time w.cs
let apply w mv = Compiled.apply w.c w.cs mv

let trial w f =
  let cs = w.cs in
  Compiled.save cs;
  Fun.protect f ~finally:(fun () ->
      Compiled.restore cs;
      Compiled.drop cs)

let fold_rates w f acc =
  let m0 = w.n_moves and p0 = w.n_parts in
  push_markovian w;
  branch w m0 p0 f acc

let rates w = w.rates
let rate_proc w m = w.part_procs.(w.starts.(m))
let rate_tr w m = w.part_trs.(w.starts.(m))

let fold_successors w f acc =
  let m0 = w.n_moves and p0 = w.n_parts in
  ignore (push_immediate w);
  push_markovian w;
  branch w m0 p0 (fun _ acc -> f acc) acc

let moves w =
  let c = w.c and cs = w.cs in
  Compiled.set_rates c cs;
  Compiled.invariant_window c cs;
  let immediate =
    List.init (Compiled.discrete c cs) Fun.id
    |> List.filter_map (fun i ->
           if Compiled.window_mem cs i 0.0 then Some (Compiled.move c cs i) else None)
  in
  immediate
  @ List.init (Compiled.markovian c cs) (fun i ->
        Moves.Local { proc = Compiled.markov_proc cs i; tr = Compiled.markov_tr cs i })

(* Is the scratch's state one of those saved since level [base]: the
   vanishing states on the branch? *)
let on_branch w base =
  let k = ref base and found = ref false in
  while (not !found) && !k < Compiled.depth w.cs do
    found := Compiled.equal_saved w.cs !k;
    incr k
  done;
  !found

(* The closure's depth-first walk, one snapshot per vanishing state on
   the branch ([branch]'s loop, kept apart so that it allocates no
   closure). *)
let rec go w base on_cycle leaf prob acc =
  spend w ~in_closure:true;
  let m0 = w.n_moves and p0 = w.n_parts in
  let k = push_immediate w in
  if k = 0 then leaf prob acc
  else begin
    w.vanishing <- w.vanishing + 1;
    if on_branch w base then begin
      pop w m0 p0;
      on_cycle ();
      acc
    end
    else begin
      let p = prob /. float_of_int k and cs = w.cs in
      Compiled.save cs;
      let acc = ref acc in
      for m = m0 to m0 + k - 1 do
        if m > m0 then Compiled.restore cs;
        fire w m;
        acc := go w base on_cycle leaf p !acc
      done;
      Compiled.drop cs;
      pop w m0 p0;
      !acc
    end
  end

let close w ~on_cycle leaf acc =
  let base = Compiled.depth w.cs and m0 = w.n_moves and p0 = w.n_parts in
  match go w base on_cycle leaf 1.0 acc with
  | acc -> acc
  | exception e ->
    unwind w base m0 p0;
    raise e

(* After [close] the scratch holds the state it visited last, which is
   the last stable state unless that visit cut a cycle: so each stable
   state is copied aside as it is reached, and the last one copied
   back. *)
let witness w leaf =
  let c = w.c and cs = w.cs and held = Lazy.force w.held in
  let keep _ _ =
    leaf ();
    Compiled.copy c ~src:cs ~dst:held;
    true
  in
  if trial w (fun () -> close w ~on_cycle:ignore keep false) then
    Compiled.copy c ~src:held ~dst:cs

let vanishing_visits w = w.vanishing

let delay_free w =
  let c = w.c and cs = w.cs in
  if Compiled.markovian c cs > 0 then `Race
  else begin
    Compiled.set_rates c cs;
    Compiled.invariant_window c cs;
    if Slimsim_intervals.Interval_set.(not (equal (Compiled.inv_window cs) (point 0.0)))
    then `Time_can_elapse
    else begin
      ignore (Compiled.discrete c cs);
      let k = Compiled.enabled_after c cs 0.0 in
      `Moves (List.init k (fun j -> Compiled.move c cs (Compiled.enabled cs j)))
    end
  end

let asap w ~horizon =
  let eps = 1e-9 and c = w.c and cs = w.cs in
  let rec go iterations =
    charge w;
    if not (iterations > 10_000 || Compiled.time cs >= horizon) then begin
      Compiled.set_rates c cs;
      Compiled.invariant_window c cs;
      ignore (Compiled.discrete c cs);
      let first = Compiled.moves_first_point cs ~eps in
      if not (first = infinity || Compiled.time cs +. first > horizon) then
        if Compiled.enabled_after c cs first = 0 then
          Compiled.advance c cs (Float.max first eps)
        else begin
          Compiled.apply_move c cs ~delay:first (Compiled.enabled cs 0);
          go (iterations + 1)
        end
    end
  in
  go 0

type walker = t

module Table = struct
  (* Each timeless state is one key in the arena: its locations as
     varints (LEB128 over the 63 bits of an int), then its values, each
     laid out by its variable's declared type and by nothing else: a
     [Bool] is one byte, 0 or 1; a [Real] its 8 bytes, canonical
     ([-0.0] as [0.0], every NaN as [Float.nan]); an [Int] k the byte k
     for 0 <= k < [small_ints], else the byte [small_ints] and k's
     zig-zag varint.  [intern] refuses a value not of its variable's
     type, so equal keys are exactly [State.equal_timeless] states.
     Keys start on 8-byte boundaries and are padded with zeros to a
     whole number of words, which the hash and the comparison read.
     Padding keeps keys apart: no key is a proper prefix of another of
     the same network.

     A key's hash is a sum over its words, each weighed by multipliers
     of its position, then mixed: a successor's key is the key of the
     state last loaded with the fields written since patched in place
     ([add]), and its hash that key's sum with the patched words' terms
     swapped.  Each slot of the open-addressing index keeps the top 31
     bits of the hash above the state's number: their low bits place it,
     and a probe reads a key only when all of them match, so doubling
     the index reads no key.

     The arena is chunks of at most [1 lsl arena_bits] bytes, 64 KiB or
     the longest key if that is longer.  The first holds 16 of the
     longest keys and each next one is twice as long, up to that size,
     so a small table stays small.  A key that does not fit in what is
     left of a chunk starts the next one, so no key straddles two.
     State i's span packs its key's position in the arena (its chunk's
     number times [1 lsl arena_bits], plus its offset there) above
     [len_bits] bits of its length.  Spans, parents and times are kept
     in chunks too ({!Chunked.entries}): growing the table copies no
     key, and no per-state entry once there are 1024.  Only [slots]
     doubles.  A parent of -1 and a time of [+0.0] are not written
     ({!Chunked.get_or} reads them back), so a caller that interns only
     roots at time 0, as the CTMC explorer does, makes no chunk of
     either. *)
  type t = {
    procs : int;
    vars : int;
    max_key : int;
    arena_bits : int;
    len_bits : int;
    mults : int array;  (* per word of a key, two odd multipliers *)
    arena : Bytes.t Chunked.t;
    mutable chunk : int;  (* the arena chunk keys are written to *)
    mutable buf : Bytes.t;  (* that chunk *)
    mutable free : int;  (* its first byte past the last key *)
    spans : int array Chunked.t;
    parents : int array Chunked.t;
    times : float array Chunked.t;  (* the time of the state first interned *)
    mutable slots : int array;  (* open addressing: hash bits, state + 1; 0 when free *)
    mutable n : int;
    mutable cursor : int;
    mutable rbuf : Bytes.t;  (* the arena chunk [decode] reads *)
    mutable rpos : int;  (* the next byte it reads *)
    mutable rstart : int;  (* where the key it reads starts *)
    (* Staging stores in {!Compiled}'s layout: [intern] unboxes a state
       into them to pack it, and [decode] unpacks a key into them for
       [load] to hand to {!Compiled.load} and [state] to box. *)
    locs : int array;
    ints : int array;
    floats : float array;
    (* The state [load] last put on a scratch, -1 when none (its key
       stays at [rbuf.[rstart]]): the scratch's journal origin then, its
       key's sum and padded length, and the offset of each of its
       fields in the key, the end of the last one after them. *)
    mutable base : int;
    mutable base_origin : int;
    mutable base_sum : int;
    mutable base_len : int;
    offs : int array;
    mutable psum : int;  (* the sum [patch] leaves *)
    field : Bytes.t;  (* one field, packed *)
    types : Value.ty array;  (* the variables' declared types: their fields' layouts *)
    names : string array;  (* the variables' names, for [intern]'s refusals *)
  }

  let create (net : Network.t) =
    let procs = Array.length net.procs and vars = Array.length net.vars in
    let max_key = (9 * procs) + (10 * vars) + 7 in
    let rec fits b n = if 1 lsl b >= n then b else fits (b + 1) n in
    let arena_bits = fits 16 max_key and first_bits = fits 0 (16 * max_key) in
    let arena k = Bytes.create (1 lsl Int.min arena_bits (first_bits + k)) in
    (* splitmix64's increment and mix, over the 63 bits of an int *)
    let seed = ref 0x1e3779b97f4a7c15 in
    let next () =
      seed := !seed + 0x1e3779b97f4a7c15;
      let z = (!seed lxor (!seed lsr 30)) * 0x3f58476d1ce4e5b9 in
      let z = (z lxor (z lsr 27)) * 0x14d049bb133111eb in
      (z lxor (z lsr 31)) lor 1
    in
    {
      procs;
      vars;
      max_key;
      arena_bits;
      len_bits = arena_bits + 1;
      mults = Array.init (2 * ((max_key / 8) + 1)) (fun _ -> next ());
      arena = Chunked.create arena;
      chunk = -1;
      buf = Bytes.empty;
      free = 0;
      spans = Chunked.entries 0;
      parents = Chunked.entries (-1);
      times = Chunked.entries 0.0;
      slots = Array.make 128 0;
      n = 0;
      cursor = 0;
      rbuf = Bytes.empty;
      rpos = 0;
      rstart = 0;
      locs = Array.make procs 0;
      ints = Array.make vars 0;
      floats = Array.make vars 0.0;
      base = -1;
      base_origin = -1;
      base_sum = 0;
      base_len = 0;
      offs = Array.make (procs + vars + 1) 0;
      psum = 0;
      field = Bytes.create 16;
      types = Array.init vars (Network.var_type net);
      names = Array.map (fun (v : Network.var_info) -> v.var_name) net.vars;
    }

  let length t = t.n
  let small_ints = 252
  let put b pos x = Bytes.unsafe_set b pos (Char.unsafe_chr x)

  let rec put_varint b pos x =
    if x >= 0 && x < 0x80 then begin
      put b pos x;
      pos + 1
    end
    else begin
      put b pos (x land 0x7f lor 0x80);
      put_varint b (pos + 1) (x lsr 7)
    end

  let[@inline] canonical f = if f = 0.0 then 0.0 else if Float.is_nan f then Float.nan else f
  let zigzag k = (k lsl 1) lxor (k asr (Sys.int_size - 1))
  let unzigzag z = (z lsr 1) lxor -(z land 1)

  let put_int b pos k =
    if k >= 0 && k < small_ints then begin
      put b pos k;
      pos + 1
    end
    else begin
      put b pos small_ints;
      put_varint b (pos + 1) (zigzag k)
    end

  (* The encoder: field [f] of the state whose stores are [locs], [ints]
     (Booleans as 0 or 1, which [put_int] packs as one byte) and
     [floats], packed at [b.[pos]]: the location of process [f], else
     variable [f - procs] by its declared type; the position past it. *)
  let put_field t locs ints floats b pos f =
    if f < t.procs then put_varint b pos (Array.unsafe_get locs f)
    else
      let v = f - t.procs in
      if Array.unsafe_get t.types v = Value.Treal then begin
        Bytes.set_int64_le b pos (Int64.bits_of_float (canonical (Array.unsafe_get floats v)));
        pos + 8
      end
      else put_int b pos (Array.unsafe_get ints v)

  let pack t locs ints floats start =
    let pos = ref start in
    for f = 0 to t.procs + t.vars - 1 do
      pos := put_field t locs ints floats t.buf !pos f
    done;
    !pos

  external get64 : Bytes.t -> int -> int64 = "%caml_bytes_get64"
  external set64 : Bytes.t -> int -> int64 -> unit = "%caml_bytes_set64"

  (* The hash's term of the key word at [b.[p]], the [k]-th of its key:
     its low 63 bits and its high 32, each times a multiplier of the
     position. *)
  let[@inline] term t b p k =
    let x = get64 b p in
    (Int64.to_int x * Array.unsafe_get t.mults (2 * k))
    + (Int64.to_int (Int64.shift_right_logical x 32) * Array.unsafe_get t.mults ((2 * k) + 1))

  (* The sum of the padded key at [b[start, stop)]: its length plus its
     words' terms. *)
  let sum t b start stop =
    let h = ref (stop - start) and p = ref start in
    while !p < stop do
      h := !h + term t b !p ((!p - start) lsr 3);
      p := !p + 8
    done;
    !h

  let mix h =
    let h = (h lxor (h lsr 32)) * 0x1d8e4e27c47d124f in
    let h = (h lxor (h lsr 29)) * 0x2545f4914f6cdd1d in
    h lxor (h lsr 32)

  (* A slot holds the top 31 bits of a key's mixed hash above its state
     number plus one.  Those bits place the key in the index (their low
     bits) and tell keys apart before one is read (the rest). *)
  let idx_bits = 32
  let idx_mask = (1 lsl idx_bits) - 1
  let tag h = h lsr idx_bits

  (* State i's key: [key_len span] bytes at [key_pos t span] in chunk
     [key_chunk t span] of the arena. *)
  let key_len t span = span land ((1 lsl t.len_bits) - 1)
  let key_chunk t span = Chunked.chunk t.arena (span lsr (t.len_bits + t.arena_bits))
  let key_pos t span = (span lsr t.len_bits) land ((1 lsl t.arena_bits) - 1)

  (* Is state i's key the one written at [buf[start, stop)]? *)
  let same_key t i start stop =
    let span = Chunked.get t.spans i and len = stop - start in
    key_len t span = len
    &&
    let b = key_chunk t span and a = key_pos t span and k = ref 0 in
    while !k < len && (get64 b (a + !k) : int64) = get64 t.buf (start + !k) do
      k := !k + 8
    done;
    !k = len

  let rec insert_slot slots mask x k =
    if slots.(k) = 0 then slots.(k) <- x else insert_slot slots mask x ((k + 1) land mask)

  (* Keep at most half of the slots in use: the index of state numbers
     is the one part of the table that grows by doubling and copying,
     and its slots carry what placing them again needs. *)
  let rehash t =
    let slots = Array.make (2 * Array.length t.slots) 0 in
    let mask = Array.length slots - 1 in
    Array.iter (fun x -> if x <> 0 then insert_slot slots mask x ((x lsr idx_bits) land mask)) t.slots;
    t.slots <- slots

  (* The next key is written at [start] in [buf], past the last one, or
     at the start of the next chunk when the longest key would not fit;
     it is kept only if it is new. *)
  let start t =
    if t.free + t.max_key > Bytes.length t.buf then begin
      t.chunk <- t.chunk + 1;
      t.buf <- Chunked.chunk t.arena t.chunk;
      t.free <- 0
    end;
    t.free

  (* The state whose key is at [start, stop), or [-1 - k] with [k] the
     free slot where it goes. *)
  let rec probe t g start stop k =
    let x = t.slots.(k) in
    if x = 0 then -1 - k
    else
      let e = (x land idx_mask) - 1 in
      if x lsr idx_bits = g && same_key t e start stop then e
      else probe t g start stop ((k + 1) land (Array.length t.slots - 1))

  (* The number of the padded key written at [start, stop) with sum
     [sum], adding it when it is new; a new state's time is the caller's
     to set. *)
  let find_or_add t start stop sum ~parent =
    let g = tag (mix sum) in
    let e = probe t g start stop (g land (Array.length t.slots - 1)) in
    if e >= 0 then e
    else begin
      let i = t.n in
      let pos = (t.chunk lsl t.arena_bits) lor start in
      Chunked.set t.spans i ((pos lsl t.len_bits) lor (stop - start));
      if parent <> -1 then Chunked.set t.parents i parent;
      t.free <- stop;
      t.slots.(-1 - e) <- (g lsl idx_bits) lor (i + 1);
      t.n <- i + 1;
      if 2 * t.n > Array.length t.slots then rehash t;
      i
    end

  (* [find_or_add] of the key written at [start, stop), once padded. *)
  let pad_and_add t start stop ~parent =
    let padded = (stop + 7) land lnot 7 in
    Bytes.fill t.buf stop (padded - stop) '\000';
    find_or_add t start padded (sum t t.buf start padded) ~parent

  let set_time t i x = if Int64.bits_of_float x <> 0L then Chunked.set t.times i x
  let time t i = Chunked.get_or t.times i 0.0

  let intern t (s : State.t) ~parent =
    if Array.length s.locs <> t.procs || Array.length s.vals <> t.vars then
      invalid_arg "Walker.Table.intern: the state does not fit the network";
    Array.iteri
      (fun v x ->
        match t.types.(v), x with
        | Value.Tint, Value.Int k -> t.ints.(v) <- k
        | Tbool, Bool b -> t.ints.(v) <- Bool.to_int b
        | Treal, Real f -> t.floats.(v) <- f
        | ty, _ ->
          invalid_arg
            (Printf.sprintf "Walker.Table.intern: variable %s is declared %s, not %s (%s)"
               t.names.(v) (Value.type_name ty)
               (Value.type_name (Value.type_of x))
               (Value.to_string x)))
      s.vals;
    let start = start t in
    let stop = pack t s.locs t.ints t.floats start in
    let n = t.n in
    let i = pad_and_add t start stop ~parent in
    if t.n > n then set_time t i s.time;
    i

  (* The base's key at [start] with the fields scratch [cs] (its stores
     [locs], [ints] and [floats]) wrote since its load patched in, its
     sum in [psum]: [false] as soon as a field's new value would change
     its length.  A field is packed into [field] first, and patched only
     where its bytes differ. *)
  let patch t cs locs ints floats start =
    let b = t.buf and j = ref 0 in
    while !j < t.base_len do
      set64 b (start + !j) (get64 t.rbuf (t.rstart + !j));
      j := !j + 8
    done;
    let sum = ref t.base_sum and e = ref 0 and ok = ref true in
    let n = Compiled.written cs in
    while !ok && !e < n do
      let f = Compiled.written_field cs !e in
      incr e;
      if f >= 0 then begin
        let off = Array.unsafe_get t.offs f in
        let len = Array.unsafe_get t.offs (f + 1) - off in
        if put_field t locs ints floats t.field 0 f <> len then ok := false
        else begin
          let k = ref 0 in
          while !k < len && Bytes.unsafe_get t.field !k = Bytes.unsafe_get b (start + off + !k) do
            incr k
          done;
          if !k < len then begin
            let w0 = off lsr 3 and w1 = (off + len - 1) lsr 3 in
            for k = w0 to w1 do
              sum := !sum - term t b (start + (8 * k)) k
            done;
            for k = 0 to len - 1 do
              Bytes.unsafe_set b (start + off + k) (Bytes.unsafe_get t.field k)
            done;
            for k = w0 to w1 do
              sum := !sum + term t b (start + (8 * k)) k
            done
          end
        end
      end
    done;
    t.psum <- !sum;
    !ok

  (* [intern] of the scratch's state, read from its stores: patched from
     the state last loaded when every write since is on the scratch's
     journal, packed afresh otherwise. *)
  let add t (w : walker) ~parent =
    let cs = w.cs and start = start t and n = t.n in
    let locs = Compiled.locs cs and ints = Compiled.ints cs and floats = Compiled.floats cs in
    let i =
      if t.base >= 0 && t.base_origin >= 0 && Compiled.origin cs = t.base_origin
         && patch t cs locs ints floats start
      then find_or_add t start (start + t.base_len) t.psum ~parent
      else pad_and_add t start (pack t locs ints floats start) ~parent
    in
    if t.n > n then set_time t i (Compiled.time cs);
    i

  (* The varint at [rbuf.[rpos]], [rpos] moved past it. *)
  let rec read_varint t shift acc =
    let c = Char.code (Bytes.get t.rbuf t.rpos) in
    t.rpos <- t.rpos + 1;
    let acc = acc lor ((c land 0x7f) lsl shift) in
    if c < 0x80 then acc else read_varint t (shift + 7) acc

  (* The decoder: state [i]'s key back into the staging stores, noting
     where each field starts in [offs], the end of the last one after
     them.  A field's first byte is read in place: most fields are one
     byte long. *)
  let decode t i =
    if i < 0 || i >= t.n then invalid_arg "Walker.Table: no such state";
    let span = Chunked.get t.spans i in
    let b = key_chunk t span and start = key_pos t span and procs = t.procs in
    t.base <- -1;
    t.rbuf <- b;
    t.rpos <- start;
    t.rstart <- start;
    for p = 0 to procs - 1 do
      Array.unsafe_set t.offs p (t.rpos - start);
      let c = Char.code (Bytes.get b t.rpos) in
      Array.unsafe_set t.locs p (if c < 0x80 then (t.rpos <- t.rpos + 1; c) else read_varint t 0 0)
    done;
    for v = 0 to t.vars - 1 do
      Array.unsafe_set t.offs (procs + v) (t.rpos - start);
      if Array.unsafe_get t.types v = Value.Treal then begin
        Array.unsafe_set t.floats v (Int64.float_of_bits (Bytes.get_int64_le b t.rpos));
        t.rpos <- t.rpos + 8
      end
      else
        let c = Char.code (Bytes.get b t.rpos) in
        t.rpos <- t.rpos + 1;
        Array.unsafe_set t.ints v (if c < small_ints then c else unzigzag (read_varint t 0 0))
    done;
    t.offs.(procs + t.vars) <- t.rpos - start

  let state t i =
    decode t i;
    let value v : Value.t =
      match t.types.(v) with
      | Tint -> Int t.ints.(v)
      | Tbool -> Bool (t.ints.(v) <> 0)
      | Treal -> Real t.floats.(v)
    in
    { State.locs = Array.copy t.locs; vals = Array.init t.vars value; time = time t i }

  let load t i (w : walker) =
    decode t i;
    Compiled.load w.c w.cs ~locs:t.locs ~ints:t.ints ~floats:t.floats ~time:(time t i);
    t.base <- i;
    t.base_origin <- Compiled.origin w.cs;
    t.base_len <- key_len t (Chunked.get t.spans i);
    t.base_sum <- sum t t.rbuf t.rstart (t.rstart + t.base_len)

  let parent t i =
    if i < 0 || i >= t.n then invalid_arg "Walker.Table: no such state";
    Chunked.get_or t.parents i (-1)

  let next t =
    if t.cursor >= t.n then None
    else begin
      t.cursor <- t.cursor + 1;
      Some (t.cursor - 1)
    end
end

let protect f =
  match f () with
  | v -> v
  | exception Value.Type_error msg -> Error ("type error: " ^ msg)
  | exception Linear.Nonlinear msg -> Error ("non-linear guard: " ^ msg)
