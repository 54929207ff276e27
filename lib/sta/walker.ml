type t = {
  c : Compiled.t;
  cs : Compiled.cstate;
  mutable loaded : State.t option;  (* the state the scratch holds *)
  mutable budget : int;
  mutable vanishing : int;
}

let create ~budget net =
  let c = Compiled.compile net in
  { c; cs = Compiled.scratch c; loaded = None; budget; vanishing = 0 }

(* Load [s] unless the scratch holds it already, as it does after the
   [successor] that returned it: a scratch that went through a move
   holds the values [of_state] would load from its [to_state]. *)
let load w s =
  match w.loaded with
  | Some l when l == s -> ()
  | _ ->
    Compiled.of_state w.c w.cs s;
    w.loaded <- Some s

let immediate w s =
  load w s;
  Compiled.set_rates w.c w.cs;
  Compiled.invariant_window w.c w.cs;
  List.init (Compiled.discrete w.c w.cs) Fun.id
  |> List.filter_map (fun i ->
         if Compiled.window_mem w.cs i 0.0 then Some (Compiled.move w.c w.cs i) else None)

let markovian w s =
  load w s;
  let n = Compiled.markovian w.c w.cs in
  let rates = Compiled.markov_buf w.cs in
  List.init n (fun i -> (Compiled.markov_proc w.cs i, Compiled.markov_tr w.cs i, rates.(i)))

let successor w s mv =
  load w s;
  w.loaded <- None;
  Compiled.apply w.c w.cs mv;
  let s' = Compiled.to_state w.c w.cs in
  w.loaded <- Some s';
  s'

let successors w s f =
  List.iter (fun mv -> f mv (successor w s mv)) (immediate w s);
  List.iter
    (fun (p, tr, _) ->
      let mv = Moves.Local { proc = p; tr } in
      f mv (successor w s mv))
    (markovian w s)

let delay_free w s =
  load w s;
  if Compiled.markovian w.c w.cs > 0 then `Race
  else begin
    Compiled.set_rates w.c w.cs;
    Compiled.invariant_window w.c w.cs;
    if Slimsim_intervals.Interval_set.(not (equal (Compiled.inv_window w.cs) (point 0.0)))
    then `Time_can_elapse
    else begin
      ignore (Compiled.discrete w.c w.cs);
      let k = Compiled.enabled_after w.c w.cs 0.0 in
      `Moves (List.init k (fun j -> Compiled.move w.c w.cs (Compiled.enabled w.cs j)))
    end
  end

exception Exhausted of { in_closure : bool }

let spend w ~in_closure =
  w.budget <- w.budget - 1;
  if w.budget < 0 then raise (Exhausted { in_closure })

let charge w = spend w ~in_closure:false

let asap w ~horizon s =
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
  w.loaded <- None;
  Compiled.of_state c cs s;
  go 0;
  Compiled.to_state c cs

let closure w ~on_cycle leaf s acc =
  let rec go s prob on_path acc =
    spend w ~in_closure:true;
    match immediate w s with
    | [] -> leaf s prob acc
    | moves ->
      w.vanishing <- w.vanishing + 1;
      if List.exists (State.equal_timeless s) on_path then begin
        on_cycle ();
        acc
      end
      else
        let p = prob /. float_of_int (List.length moves) in
        List.fold_left (fun acc mv -> go (successor w s mv) p (s :: on_path) acc) acc moves
  in
  go s 1.0 [] acc

let vanishing_visits w = w.vanishing

module Table = struct
  (* Each timeless state is one key in [arena]: its locations as varints
     (LEB128 over the 63 bits of an int), then its values, each led by a
     tag byte: 0 and 1 the Booleans, 2 a [Real] whose 8 bytes follow, 3
     an [Int] whose zig-zag varint follows, 4 + k the [Int] k for
     0 <= k < 252.  A real is stored canonically, [-0.0] as [0.0] and
     every NaN as [Float.nan], so equal keys are exactly
     [State.equal_timeless] states. *)
  type t = {
    procs : int;
    vars : int;
    max_key : int;
    mutable arena : Bytes.t;
    mutable offsets : int array;  (* key i is arena[offsets.(i), offsets.(i + 1)) *)
    mutable hashes : int array;
    mutable parents : int array;
    mutable times : Float.Array.t;  (* the time of the state first interned *)
    mutable slots : int array;  (* open addressing: state + 1, 0 when free *)
    mutable n : int;
    mutable cursor : int;
  }

  let create (net : Network.t) =
    let procs = Array.length net.procs and vars = Array.length net.vars in
    let max_key = (9 * procs) + (10 * vars) in
    {
      procs;
      vars;
      max_key;
      arena = Bytes.create (16 * max_key);
      offsets = [| 0 |];
      hashes = [||];
      parents = [||];
      times = Float.Array.create 0;
      slots = Array.make 128 0;
      n = 0;
      cursor = 0;
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

  let canonical f = if f = 0.0 then 0.0 else if Float.is_nan f then Float.nan else f

  let put_value b pos = function
    | Value.Bool v ->
      put b pos (Bool.to_int v);
      pos + 1
    | Value.Int k when k >= 0 && k < small_ints ->
      put b pos (4 + k);
      pos + 1
    | Value.Int k ->
      put b pos 3;
      put_varint b (pos + 1) ((k lsl 1) lxor (k asr (Sys.int_size - 1)))
    | Value.Real f ->
      put b pos 2;
      Bytes.set_int64_le b (pos + 1) (Int64.bits_of_float (canonical f));
      pos + 9

  (* FNV-1a over every byte of the key, then [Hashtbl.hash] to spread the
     low bits, which FNV's multiplications leave weak. *)
  let hash b start stop =
    let h = ref (stop - start) in
    for k = start to stop - 1 do
      h := (!h lxor Char.code (Bytes.unsafe_get b k)) * 0x100000001b3
    done;
    Hashtbl.hash !h

  let same_key t i start stop =
    let a = t.offsets.(i) in
    let len = stop - start in
    let rec from k =
      k = len || (Bytes.unsafe_get t.arena (a + k) = Bytes.unsafe_get t.arena (start + k) && from (k + 1))
    in
    t.offsets.(i + 1) - a = len && from 0

  let insert_slot slots h i =
    let mask = Array.length slots - 1 in
    let rec go k = if slots.(k) = 0 then slots.(k) <- i + 1 else go ((k + 1) land mask) in
    go (h land mask)

  let grow t =
    let cap = Int.max 64 (2 * t.n) in
    let extend a x =
      let b = Array.make cap x in
      Array.blit a 0 b 0 t.n;
      b
    in
    let offsets = Array.make (cap + 1) 0 in
    Array.blit t.offsets 0 offsets 0 (t.n + 1);
    t.offsets <- offsets;
    t.hashes <- extend t.hashes 0;
    t.parents <- extend t.parents (-1);
    let times = Float.Array.create cap in
    Float.Array.blit t.times 0 times 0 t.n;
    t.times <- times

  (* Keep at most half of the slots in use. *)
  let rehash t =
    let slots = Array.make (2 * Array.length t.slots) 0 in
    for i = 0 to t.n - 1 do
      insert_slot slots t.hashes.(i) i
    done;
    t.slots <- slots

  let add t slot h ~time ~parent ~stop =
    let i = t.n in
    if i >= Array.length t.hashes then grow t;
    t.offsets.(i + 1) <- stop;
    t.hashes.(i) <- h;
    t.parents.(i) <- parent;
    Float.Array.set t.times i time;
    t.slots.(slot) <- i + 1;
    t.n <- i + 1;
    if 2 * t.n > Array.length t.slots then rehash t;
    i

  let intern t (s : State.t) ~parent =
    if Array.length s.locs <> t.procs || Array.length s.vals <> t.vars then
      invalid_arg "Walker.Table.intern: the state does not fit the network";
    let start = t.offsets.(t.n) in
    if start + t.max_key > Bytes.length t.arena then begin
      let arena = Bytes.create (Int.max (2 * Bytes.length t.arena) (start + t.max_key)) in
      Bytes.blit t.arena 0 arena 0 start;
      t.arena <- arena
    end;
    (* the key is written past the last one and kept only if it is new *)
    let pos = Array.fold_left (put_varint t.arena) start s.locs in
    let stop = Array.fold_left (put_value t.arena) pos s.vals in
    let h = hash t.arena start stop in
    let mask = Array.length t.slots - 1 in
    let rec probe k =
      let e = t.slots.(k) - 1 in
      if e < 0 then add t k h ~time:s.time ~parent ~stop
      else if t.hashes.(e) = h && same_key t e start stop then e
      else probe ((k + 1) land mask)
    in
    probe (h land mask)

  let state t i =
    if i < 0 || i >= t.n then invalid_arg "Walker.Table.state";
    let b = t.arena and pos = ref t.offsets.(i) in
    let byte () =
      let c = Char.code (Bytes.get b !pos) in
      incr pos;
      c
    in
    let rec varint shift acc =
      let c = byte () in
      let acc = acc lor ((c land 0x7f) lsl shift) in
      if c < 0x80 then acc else varint (shift + 7) acc
    in
    let locs = Array.init t.procs (fun _ -> varint 0 0) in
    let vals =
      Array.init t.vars (fun _ ->
          match byte () with
          | (0 | 1) as c -> Value.Bool (c = 1)
          | 2 ->
            let f = Int64.float_of_bits (Bytes.get_int64_le b !pos) in
            pos := !pos + 8;
            Value.Real f
          | 3 ->
            let z = varint 0 0 in
            Value.Int ((z lsr 1) lxor (-(z land 1)))
          | c -> Value.Int (c - 4))
    in
    { State.locs; vals; time = Float.Array.get t.times i }

  let parent t i = t.parents.(i)

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
