(* Staged compilation of an STA network (the UPPAAL-style "compiled
   run-time representation"): expressions become closures, per-location
   move tables are precomputed, and simulation runs on a mutable
   per-worker scratch state instead of immutable snapshots.

   The compiled core is semantically locked to the interpreter
   (Expr.eval / Linear.sat_set / State / test/moves_oracle.ml): every
   float operation is performed in the same order with the same
   primitives, so a compiled path produces a bit-identical verdict
   stream for a fixed seed.  The documented deviation: [apply]
   evaluates the activation condition of a process only when the
   process has a [Restart] policy, so an activation condition that
   raises only in the intermediate post-delay state surfaces at the
   next step instead.

   A move pays for what it changes.  Data flows are re-evaluated only
   when marked dirty by a write that can change their value (see
   [compile] for the tables), and a flow whose value stays as it was
   marks none of the flows that read it.  A snapshot (a trial, a
   branch of the state-graph walk) journals the writes made under it
   and copies nothing.  Two rules skip work whose outcome is known
   in advance, so enabled sets, windows and error streams stay as
   the interpreter's:
   - [enabled_after] fires on trial only the moves that are not
     trial-free ([stage]).  A trial-free move writes nothing that
     another process's invariant or an activation condition reads,
     cannot raise, and lands where its own invariant holds, so one
     check shared by all of them (the delay alone, then each active
     invariant) decides them.  That check stays: the window is solved
     symbolically, and a clock advanced by its last point can round
     past the bound that set it.  If the check raises or restarts a
     process, every move is tried, as before.
   - [sync_moves] evaluates no guard of an event when an active
     participant has no transition on it at its location, unless one
     of the event's guards could raise.

   A variable lives in the store of its declared type, the type of its
   initial value: an [Int] or a [Bool] (as 0 or 1) in the unboxed
   [int array], a [Real] in the unboxed [float array], where the delay
   advances a clock.  [Network.make] has checked that every update and
   flow writes its target's type, so a well-typed expression compiles
   to native ints, floats and Booleans ([compile_int], [real_typed],
   [bool_typed]); an expression with no static type, which only a
   hand-built guard or goal can be, is evaluated by [Expr.eval] over
   the boxed values.  A variable is boxed only when read back as a
   [Value.t]. *)

module I = Slimsim_intervals.Interval_set

(* ------------------------------------------------------------------ *)
(* Delay windows without allocation                                   *)

(* A table of delay windows.  Entry [i] is one of: empty, a single
   interval stored unboxed (the common case: guards over clocks give
   half-lines, invariants give a component), or a general
   [Interval_set.t] kept in [gen].  Every operation below mirrors the
   [Interval_set] function it is named after, comparison for
   comparison, so converting an entry back with [w_to_set] gives the
   very set the interpreter computes. *)
type wtab = {
  mutable lo : float array;
  mutable hi : float array;
  mutable lk : Bytes.t;  (* lower bound kind, or [k_empty]/[k_gen] *)
  mutable hk : Bytes.t;  (* upper bound kind *)
  mutable gen : I.t array;
}

let k_open = '\000'  (* finite endpoint, excluded *)
let k_closed = '\001'  (* finite endpoint, included *)
let k_inf = '\002'  (* [Neg_inf] as a lower bound, [Pos_inf] as an upper *)
let k_empty = '\003'  (* lower kind only: the entry is the empty set *)
let k_gen = '\004'  (* lower kind only: the entry is [gen.(i)] *)

let wtab n =
  {
    lo = Array.make n 0.0;
    hi = Array.make n 0.0;
    lk = Bytes.make n k_empty;
    hk = Bytes.make n k_empty;
    gen = Array.make n I.empty;
  }

let w_grow w n =
  let len = Array.length w.lo in
  if n > len then begin
    let m = max n (2 * len) in
    let lo = Array.make m 0.0 and hi = Array.make m 0.0 in
    let lk = Bytes.make m k_empty and hk = Bytes.make m k_empty in
    let gen = Array.make m I.empty in
    Array.blit w.lo 0 lo 0 len;
    Array.blit w.hi 0 hi 0 len;
    Bytes.blit w.lk 0 lk 0 len;
    Bytes.blit w.hk 0 hk 0 len;
    Array.blit w.gen 0 gen 0 len;
    w.lo <- lo;
    w.hi <- hi;
    w.lk <- lk;
    w.hk <- hk;
    w.gen <- gen
  end

let w_is_empty w i = Bytes.get w.lk i = k_empty
let w_set_empty w i = Bytes.set w.lk i k_empty

let[@inline] w_set w i lk (lo : float) hk (hi : float) =
  Bytes.set w.lk i lk;
  w.lo.(i) <- lo;
  Bytes.set w.hk i hk;
  w.hi.(i) <- hi

let w_set_full w i = w_set w i k_inf neg_infinity k_inf infinity

let w_set_gen w i x =
  Bytes.set w.lk i k_gen;
  w.gen.(i) <- x

let w_copy src i dst j =
  let lk = Bytes.get src.lk i in
  if lk = k_gen then w_set_gen dst j src.gen.(i)
  else w_set dst j lk src.lo.(i) (Bytes.get src.hk i) src.hi.(i)

let kind_of_closed c = if c then k_closed else k_open
let closed k = Char.code k (* 1 for [k_closed], 0 for [k_open] *)

let w_of_set w i (x : I.t) =
  match I.intervals x with
  | [] -> w_set_empty w i
  | [ iv ] -> (
    match iv.I.lo, iv.I.hi with
    | I.Neg_inf, I.Pos_inf -> w_set_full w i
    | I.Neg_inf, I.Fin (b, cb) -> w_set w i k_inf neg_infinity (kind_of_closed cb) b
    | I.Fin (a, ca), I.Pos_inf -> w_set w i (kind_of_closed ca) a k_inf infinity
    | I.Fin (a, ca), I.Fin (b, cb) ->
      w_set w i (kind_of_closed ca) a (kind_of_closed cb) b
    | _ -> w_set_gen w i x)
  | _ -> w_set_gen w i x

let w_to_set w i : I.t =
  let lk = Bytes.get w.lk i in
  if lk = k_empty then I.empty
  else if lk = k_gen then w.gen.(i)
  else begin
    let hk = Bytes.get w.hk i in
    I.make
      (if lk = k_inf then I.Neg_inf else I.Fin (w.lo.(i), lk = k_closed))
      (if hk = k_inf then I.Pos_inf else I.Fin (w.hi.(i), hk = k_closed))
  end

(* [Interval_set.cmp_lower] / [cmp_upper] on (kind, value) bounds. *)
let[@inline] cmp_lower k1 (x1 : float) k2 (x2 : float) =
  if k1 = k_inf then if k2 = k_inf then 0 else -1
  else if k2 = k_inf then 1
  else if x1 < x2 then -1
  else if x1 > x2 then 1
  else closed k2 - closed k1

let[@inline] cmp_upper k1 (x1 : float) k2 (x2 : float) =
  if k1 = k_inf then if k2 = k_inf then 0 else 1
  else if k2 = k_inf then -1
  else if x1 < x2 then -1
  else if x1 > x2 then 1
  else closed k1 - closed k2

let[@inline] nonempty lk (lo : float) hk (hi : float) =
  lk = k_inf || hk = k_inf || lo < hi || (lo = hi && lk = k_closed && hk = k_closed)

(* [w.(k) <- Interval_set.inter a.(i) b.(j)]; [k] may alias [i] or [j]. *)
let w_inter w k a i b j =
  let la = Bytes.get a.lk i and lb = Bytes.get b.lk j in
  if la = k_empty || lb = k_empty then w_set_empty w k
  else if la = k_gen || lb = k_gen then
    w_of_set w k (I.inter (w_to_set a i) (w_to_set b j))
  else begin
    let alo = a.lo.(i) and blo = b.lo.(j) in
    let ha = Bytes.get a.hk i and hb = Bytes.get b.hk j in
    let ahi = a.hi.(i) and bhi = b.hi.(j) in
    let take_a = cmp_lower la alo lb blo >= 0 in
    let lk = if take_a then la else lb in
    let lo = if take_a then alo else blo in
    let take_a = cmp_upper ha ahi hb bhi <= 0 in
    let hk = if take_a then ha else hb in
    let hi = if take_a then ahi else bhi in
    if nonempty lk lo hk hi then w_set w k lk lo hk hi else w_set_empty w k
  end

(* [w.(k) <- Interval_set.union a.(i) b.(j)]: the merge puts the
   interval with the earlier lower bound first, and [normalize] joins
   the two when they overlap or touch. *)
let w_union w k a i b j =
  let la = Bytes.get a.lk i and lb = Bytes.get b.lk j in
  if la = k_empty then w_copy b j w k
  else if lb = k_empty then w_copy a i w k
  else if la = k_gen || lb = k_gen then
    w_of_set w k (I.union (w_to_set a i) (w_to_set b j))
  else begin
    let alo = a.lo.(i) and blo = b.lo.(j) in
    let a_first = cmp_lower la alo lb blo <= 0 in
    let fk = if a_first then la else lb and flo = if a_first then alo else blo in
    let fhk = if a_first then Bytes.get a.hk i else Bytes.get b.hk j in
    let fhi = if a_first then a.hi.(i) else b.hi.(j) in
    let sk = if a_first then lb else la and slo = if a_first then blo else alo in
    let shk = if a_first then Bytes.get b.hk j else Bytes.get a.hk i in
    let shi = if a_first then b.hi.(j) else a.hi.(i) in
    let joins =
      fhk = k_inf || sk = k_inf || fhi > slo
      || (fhi = slo && (fhk = k_closed || sk = k_closed))
    in
    if joins then begin
      let keep = cmp_upper fhk fhi shk shi >= 0 in
      w_set w k fk flo (if keep then fhk else shk) (if keep then fhi else shi)
    end
    else w_of_set w k (I.union (w_to_set a i) (w_to_set b j))
  end

(* [w.(k) <- Interval_set.complement w.(k)]: a half-line or the full
   line stays one interval; a bounded interval leaves two. *)
let w_complement w k =
  let lk = Bytes.get w.lk k in
  if lk = k_empty then w_set_full w k
  else if lk = k_gen then w_of_set w k (I.complement w.gen.(k))
  else begin
    let hk = Bytes.get w.hk k in
    if lk = k_inf && hk = k_inf then w_set_empty w k
    else if hk = k_inf then
      w_set w k k_inf neg_infinity (if lk = k_closed then k_open else k_closed) w.lo.(k)
    else if lk = k_inf then
      w_set w k (if hk = k_closed then k_open else k_closed) w.hi.(k) k_inf infinity
    else w_of_set w k (I.complement (w_to_set w k))
  end

let[@inline] w_mem (x : float) w i =
  let lk = Bytes.get w.lk i in
  if lk = k_empty then false
  else if lk = k_gen then I.mem x w.gen.(i)
  else begin
    let hk = Bytes.get w.hk i in
    (lk = k_inf || if lk = k_closed then x >= w.lo.(i) else x > w.lo.(i))
    && (hk = k_inf || if hk = k_closed then x <= w.hi.(i) else x < w.hi.(i))
  end

(* [Interval_set.first_point], with [infinity] standing for [None]. *)
let[@inline] w_first_point ~eps w i =
  let lk = Bytes.get w.lk i in
  if lk = k_empty || lk = k_inf then infinity
  else if lk = k_gen then
    match I.first_point ~eps w.gen.(i) with Some x -> x | None -> infinity
  else begin
    let a = w.lo.(i) in
    if lk = k_closed then a
    else if Bytes.get w.hk i = k_inf then a +. eps
    else
      let b = w.hi.(i) in
      if a +. eps < b then a +. eps else a +. ((b -. a) /. 2.0)
  end

(* [Linear.solve_cmp op {a; b}] into [w.(k)]. *)
let[@inline] w_solve_cmp w k (op : Expr.binop) (a : float) (b : float) =
  if b = 0.0 then begin
    let holds =
      match op with
      | Lt -> a < 0.0
      | Le -> a <= 0.0
      | Gt -> a > 0.0
      | Ge -> a >= 0.0
      | Eq -> a = 0.0
      | Neq -> a <> 0.0
      | _ -> assert false
    in
    if holds then w_set_full w k else w_set_empty w k
  end
  else begin
    let root = -.a /. b in
    match op with
    | Lt | Le | Gt | Ge ->
      (* below the root when [a + b·d] grows ([Lt]/[Le]) or shrinks
         ([Gt]/[Ge]) with the delay, above it otherwise *)
      let kind = match op with Le | Ge -> k_closed | _ -> k_open in
      let below = match op with Lt | Le -> b > 0.0 | _ -> not (b > 0.0) in
      if below then w_set w k k_inf neg_infinity kind root
      else w_set w k kind root k_inf infinity
    | Eq ->
      if nonempty k_closed root k_closed root then w_set w k k_closed root k_closed root
      else w_set_empty w k
    | Neq -> w_of_set w k (I.complement (I.point root))
    | _ -> assert false
  end

(* ------------------------------------------------------------------ *)
(* Scratch state                                                      *)

type cstate = {
  locs : int array;
  ty : Value.ty array;
      (* each variable's declared type, which names its store: shared by
         the scratches of one network *)
  ival : int array;  (* an [Int] variable's value, a [Bool] one's as 0 or 1 *)
  fval : float array;  (* a [Real] variable's value: reals, clocks, continuous *)
  dl : float array;  (* singleton cell: the delay [fire] lets pass *)
  rates : float array;  (* current derivative vector, see [set_rates] *)
  time : float array;  (* singleton cell: flat float array = unboxed *)
  dirty : Bytes.t;
      (* one byte per flow: set when the flow's target may differ from
         its expression; every other target equals its expression *)
  mutable n_dirty : int;
  n_procs : int;
  (* The undo journal: one entry per write to the state while it is on
     ([jlen >= 0]), the written field's previous contents.  [jkey] is
     the field, its index shifted past a two-bit kind; the previous
     contents are in [jint] for a location ([j_loc]) or a variable of
     [ival] ([j_int]), and in [jflt] for one of [fval] ([j_flt]).  The
     journal is on under a snapshot and, at depth 0, from a [load] on
     ([origin >= 0]) until it would grow. *)
  mutable jlen : int;
  mutable jkey : int array;
  mutable jint : int array;
  mutable jflt : float array;
  mutable origin : int;  (* the [load] the journal runs from, or -1 *)
  (* The snapshot stack, one level per [save] in force: level [k] holds
     the journal's length, the time and the dirty count when it was
     taken.  A trial ([enabled_after] lookahead) is a level undone and
     dropped. *)
  mutable depth : int;
  mutable sv_mark : int array;
  mutable sv_time : float array;
  mutable sv_n_dirty : int array;
  seen : int array;  (* per location and variable, [equal_saved]'s visits *)
  mutable epoch : int;
  (* move enumeration, filled in place by [discrete] *)
  ev : wtab;  (* evaluator stack: 0 the invariant window, 1 an accumulator,
                 [ev_root] and up the guard being evaluated *)
  mw : wtab;  (* windows of the buffered moves *)
  mutable mv_event : int array;  (* -1 for a local move *)
  mutable mv_off : int array;  (* the move's participants in [pt_*] *)
  mutable mv_len : int array;
  mutable n_moves : int;
  mutable pt_proc : int array;
  mutable pt_tr : int array;
  mutable n_parts : int;
  mutable enabled : int array;  (* filled by [enabled_after] *)
  mutable inv_failed : int;  (* the shared check's last failing process *)
  mutable trials : int;  (* moves [enabled_after] fired on trial *)
  mutable restarts : int;  (* processes [fire] restarted *)
  cw : wtab;  (* windows of one event's candidate transitions *)
  mutable cd_tr : int array;
  act : int array;  (* the event's active participants *)
  cd_start : int array;  (* per participant, its first candidate *)
  odo : int array;  (* the candidate combination being emitted *)
  ap_proc : int array;  (* participants of a move given as [Moves.move] *)
  ap_tr : int array;
  markov_buf : float array;  (* scratch for the exponential race *)
  mk_proc : int array;
  mk_tr : int array;
  was_active : Bytes.t;  (* per [Restart] process *)
}

let ev_root = 2

let time s = s.time.(0)
let time_cell s = s.time
let markov_buf s = s.markov_buf

let vtrue = Value.Bool true
let vfalse = Value.Bool false
let vbool b = if b then vtrue else vfalse

let j_loc = 0
let j_int = 1
let j_flt = 2
let j_dirty = 3  (* a flow dirty at a save: see [save] *)
let j_bits = 2
let j_mask = (1 lsl j_bits) - 1

(* Room for one more journal entry: under a snapshot the journal
   doubles; at depth 0, where it runs only from a [load] on, it stops
   instead, and that origin ends. *)
let[@inline never] journal_full s =
  let n = s.jlen in
  if s.depth = 0 then begin
    s.jlen <- -1;
    s.origin <- -1;
    false
  end
  else begin
    let m = 2 * n in
    let jkey = Array.make m 0 and jint = Array.make m 0 and jflt = Array.make m 0.0 in
    Array.blit s.jkey 0 jkey 0 n;
    Array.blit s.jint 0 jint 0 n;
    Array.blit s.jflt 0 jflt 0 n;
    s.jkey <- jkey;
    s.jint <- jint;
    s.jflt <- jflt;
    true
  end

let[@inline] room s = s.jlen < Array.length s.jkey || journal_full s

(* The journal's writers, for a journal that is on: a field whose
   previous contents are one int, and a variable of [fval]. *)
let journal_int s key old =
  if room s then begin
    let n = s.jlen in
    Array.unsafe_set s.jkey n key;
    Array.unsafe_set s.jint n old;
    s.jlen <- n + 1
  end

let journal_flt s v =
  if room s then begin
    let n = s.jlen in
    Array.unsafe_set s.jkey n ((v lsl j_bits) lor j_flt);
    Array.unsafe_set s.jflt n (Array.unsafe_get s.fval v);
    s.jlen <- n + 1
  end

(* A variable as a [Value.t], boxed afresh from its store. *)
let value s v =
  match Array.unsafe_get s.ty v with
  | Value.Tint -> Value.Int (Array.unsafe_get s.ival v)
  | Treal -> Value.Real (Array.unsafe_get s.fval v)
  | Tbool -> vbool (Array.unsafe_get s.ival v <> 0)

(* Read-only views for cost extraction: the current numeric value of a
   variable and its derivative as of the last [set_rates]. *)
let var_float s v =
  match Array.unsafe_get s.ty v with
  | Value.Treal -> Array.unsafe_get s.fval v
  | Tint -> float_of_int (Array.unsafe_get s.ival v)
  | Tbool -> Value.as_float (value s v)

let rate s v = s.rates.(v)

(* The writes, each through the journal when it is on: a variable of
   [fval], one of [ival], and a location switch.  Writing an int or a
   location that is there already writes nothing. *)
let[@inline] set_f s v x =
  if s.jlen >= 0 then journal_flt s v;
  Array.unsafe_set s.fval v x

let[@inline] set_i s v n =
  let old = Array.unsafe_get s.ival v in
  if old <> n then begin
    if s.jlen >= 0 then journal_int s ((v lsl j_bits) lor j_int) old;
    Array.unsafe_set s.ival v n
  end

let[@inline] set_loc s p l =
  let old = Array.unsafe_get s.locs p in
  if old <> l then begin
    if s.jlen >= 0 then journal_int s ((p lsl j_bits) lor j_loc) old;
    Array.unsafe_set s.locs p l
  end

(* Do two floats have the same bits? *)
let[@inline] same_bits (a : float) b = Int64.equal (Int64.bits_of_float a) (Int64.bits_of_float b)

(* A value's bits, in the store of its type: a [Bool] as 0 or 1 in
   [ival]. *)
let ival_of = function Value.Int n -> n | Bool b -> Bool.to_int b | Real _ -> 0
let fval_of = function Value.Real x -> x | Int _ | Bool _ -> 0.0

(* A scratch for [n_procs] processes, variables of types [ty], [n_flows]
   flows, [n_markov] rate transitions and [n_slots] evaluator slots. *)
let make_cstate ~n_procs ~ty ~n_flows ~n_markov ~n_slots =
  let np = max n_procs 1 and nv = max (Array.length ty) 1 and nf = max n_flows 1 in
  let moves = 16 and levels = 4 and entries = 16 in
  {
    locs = Array.make np 0;
    ty;
    ival = Array.make nv 0;
    fval = Array.make nv 0.0;
    dl = [| 0.0 |];
    rates = Array.make nv 0.0;
    time = [| 0.0 |];
    dirty = Bytes.make nf '\000';
    n_dirty = 0;
    n_procs;
    jlen = -1;
    jkey = Array.make entries 0;
    jint = Array.make entries 0;
    jflt = Array.make entries 0.0;
    origin = -1;
    depth = 0;
    sv_mark = Array.make levels 0;
    sv_time = Array.make levels 0.0;
    sv_n_dirty = Array.make levels 0;
    seen = Array.make (np + nv) 0;
    epoch = 0;
    ev = wtab (max n_slots (ev_root + 1));
    mw = wtab moves;
    mv_event = Array.make moves 0;
    mv_off = Array.make moves 0;
    mv_len = Array.make moves 0;
    n_moves = 0;
    pt_proc = Array.make moves 0;
    pt_tr = Array.make moves 0;
    n_parts = 0;
    enabled = Array.make moves 0;
    inv_failed = -1;
    trials = 0;
    restarts = 0;
    cw = wtab moves;
    cd_tr = Array.make moves 0;
    act = Array.make np 0;
    cd_start = Array.make (np + 1) 0;
    odo = Array.make np 0;
    ap_proc = Array.make np 0;
    ap_tr = Array.make np 0;
    markov_buf = Array.make (max n_markov 1) 0.0;
    mk_proc = Array.make (max n_markov 1) 0;
    mk_tr = Array.make (max n_markov 1) 0;
    was_active = Bytes.make np '\000';
  }

let cstate_of ~locs ~vals ~rates ~time () =
  let ty = Array.map Value.type_of vals in
  Array.iteri
    (fun v r ->
      if r <> 0.0 && v < Array.length ty && ty.(v) <> Value.Treal then
        invalid_arg "Compiled.cstate_of: only a real variable has a rate")
    rates;
  let s =
    make_cstate ~n_procs:(Array.length locs) ~ty ~n_flows:0 ~n_markov:0 ~n_slots:64
  in
  Array.blit locs 0 s.locs 0 (Array.length locs);
  Array.blit rates 0 s.rates 0 (Array.length rates);
  Array.iteri
    (fun v x ->
      s.ival.(v) <- ival_of x;
      s.fval.(v) <- fval_of x)
    vals;
  s.time.(0) <- time;
  s

(* ------------------------------------------------------------------ *)
(* Expression compilation                                             *)

type cvalue = cstate -> Value.t
type cbool = cstate -> bool
type cfloat = cstate -> float
type csat = cstate -> I.t

(* The declared types expressions are compiled against, one per
   variable: a variable past the end has none, and neither has an
   expression that reads it.  An expression with a static type
   ([Expr.static_type]) compiles to the store of each variable it reads
   and to native ints, floats and Booleans; one without is evaluated by
   [Expr.eval] over [value], so it raises what the interpreter raises
   where it raises it. *)
type types = Value.ty array

let stype (tys : types) e =
  Expr.static_type (fun v -> if v < Array.length tys then Some tys.(v) else None) e

let is_real (tys : types) v = v < Array.length tys && tys.(v) = Value.Treal

let at_loc s p l = s.locs.(p) = l
let generic (e : Expr.t) : cvalue = fun s -> Expr.eval ~env:(value s) ~at_loc:(at_loc s) e

(* Does the expression divide, or take a modulo: the only ways a
   well-typed expression can raise? *)
let rec divides : Expr.t -> bool = function
  | Const _ | Var _ | Loc _ -> false
  | Unop (_, e) -> divides e
  | Binop ((Div | Mod), _, _) -> true
  | Binop (_, e1, e2) -> divides e1 || divides e2
  | Ite (c, e1, e2) -> divides c || divides e1 || divides e2

let may_raise tys e = stype tys e = None || divides e

(* Can [compile_win] of the expression not raise: Boolean structure
   over Boolean atoms and well-typed comparisons of two variables or
   constants?  Anything else is taken to be able to raise. *)
let rec win_safe tys (e : Expr.t) =
  match e with
  | Const (Value.Bool _) | Loc _ -> true
  | Var _ -> stype tys e = Some Tbool
  | Unop (Not, e1) -> win_safe tys e1
  | Binop ((And | Or | Implies), e1, e2) -> win_safe tys e1 && win_safe tys e2
  | Binop ((Eq | Neq | Lt | Le | Gt | Ge), (Var _ | Const _), (Var _ | Const _)) ->
    stype tys e <> None
  | _ -> false

(* A well-typed expression that reads no real variable (the only kind
   with a rate), divides nothing and has no if-then-else: the
   delay-symbolic evaluation ([compile_sym]) keeps every part of it
   discrete and agrees with the Boolean one, errors included (its
   division reports a zero divisor as "division by zero", and its
   if-then-else decides the condition as a delay set). *)
let untimed tys e =
  let rec go : Expr.t -> bool = function
    | Const _ | Loc _ -> true
    | Var v -> not (is_real tys v)
    | Unop (_, e1) -> go e1
    | Binop (Div, _, _) | Ite _ -> false
    | Binop (_, e1, e2) -> go e1 && go e2
  in
  go e && stype tys e <> None

(* A numeric comparison operand that is a variable or a constant, read
   without a closure call (a float returned by a closure, or by a
   function that is not inlined, is boxed):
   [(v, int, _)] for the variable [v], an [Int] one when [int], and
   [(-1, _, x)] for a constant of value [x]. *)
let num_operand tys : Expr.t -> int * bool * float = function
  | Var v -> (v, not (is_real tys v), 0.0)
  | Const c -> (-1, false, Value.as_float c)
  | _ -> invalid_arg "Compiled.num_operand"

let is_operand : Expr.t -> bool = function Var _ | Const _ -> true | _ -> false

(* An [Int] comparison operand read without a closure call: [(v, _)]
   for the variable [v], [(-1, n)] for [Const (Int n)]. *)
let int_operand : Expr.t -> (int * int) option = function
  | Var v -> Some (v, 0)
  | Const (Value.Int n) -> Some (-1, n)
  | _ -> None

(* [Value.equal] and [Value.compare_num] on two [Int]s, and on two
   numbers not both [Int]s: [Float.compare] is [compare_num]'s order
   on floats, NaN included. *)
let[@inline] int_cmp (op : Expr.binop) (x : int) y =
  match op with Eq -> x = y | Neq -> x <> y | Lt -> x < y | Le -> x <= y | Gt -> x > y | _ -> x >= y

let[@inline] float_cmp (op : Expr.binop) (x : float) y =
  match op with
  | Eq -> x = y
  | Neq -> not (x = y)
  | Lt -> Float.compare x y < 0
  | Le -> Float.compare x y <= 0
  | Gt -> Float.compare x y > 0
  | _ -> Float.compare x y >= 0

let rec compile_value tys (e : Expr.t) : cvalue =
  match e, stype tys e with
  | Const v, _ -> fun _ -> v
  | _, Some Tbool ->
    let c = bool_typed tys e in
    fun s -> vbool (c s)
  | _, Some Tint ->
    let c = compile_int tys e in
    fun s -> Value.Int (c s)
  | _, Some Treal ->
    let c = real_typed tys e in
    fun s -> Value.Real (c s)
  | _, None -> generic e

and compile_bool tys (e : Expr.t) : cbool =
  match stype tys e with
  | Some Tbool -> bool_typed tys e
  | Some (Tint | Treal) | None ->
    let c = compile_value tys e in
    fun s -> Value.as_bool (c s)

(* A [Bool]-typed expression. *)
and bool_typed tys (e : Expr.t) : cbool =
  match e with
  | Const v ->
    let b = Value.as_bool v in
    fun _ -> b
  | Var v -> fun s -> Array.unsafe_get s.ival v <> 0
  | Loc (p, l) -> fun s -> s.locs.(p) = l
  | Unop (Not, e1) ->
    let c = bool_typed tys e1 in
    fun s -> not (c s)
  | Binop (And, e1, e2) ->
    let c1 = bool_typed tys e1 and c2 = bool_typed tys e2 in
    fun s -> c1 s && c2 s
  | Binop (Or, e1, e2) ->
    let c1 = bool_typed tys e1 and c2 = bool_typed tys e2 in
    fun s -> c1 s || c2 s
  | Binop (Implies, e1, e2) ->
    let c1 = bool_typed tys e1 and c2 = bool_typed tys e2 in
    fun s -> (not (c1 s)) || c2 s
  | Binop ((Eq | Neq | Lt | Le | Gt | Ge) as op, e1, e2) -> compile_cmp tys op e1 e2
  | Ite (c, e1, e2) ->
    let cc = bool_typed tys c and c1 = bool_typed tys e1 and c2 = bool_typed tys e2 in
    fun s -> if cc s then c1 s else c2 s
  | Unop (Neg, _) | Binop ((Add | Sub | Mul | Div | Mod | Min | Max), _, _) ->
    invalid_arg "Compiled.bool_typed"

(* A well-typed comparison: of two Booleans, of two [Int]s on ints, or
   of two numbers on floats, each side a variable or a constant read
   without a closure call where it can be. *)
and compile_cmp tys op e1 e2 : cbool =
  match stype tys e1, stype tys e2 with
  | Some Tbool, _ ->
    let neg = op = Neq in
    let c1 = bool_typed tys e1 and c2 = bool_typed tys e2 in
    fun s ->
      let x = c1 s in
      let y = c2 s in
      x = y <> neg
  | Some Tint, Some Tint -> (
    match int_operand e1, int_operand e2 with
    | Some (v1, n1), Some (v2, n2) ->
      fun s ->
        let x = if v1 >= 0 then Array.unsafe_get s.ival v1 else n1 in
        let y = if v2 >= 0 then Array.unsafe_get s.ival v2 else n2 in
        int_cmp op x y
    | _ ->
      let c1 = compile_int tys e1 and c2 = compile_int tys e2 in
      fun s ->
        let x = c1 s in
        let y = c2 s in
        int_cmp op x y)
  | _ when is_operand e1 && is_operand e2 ->
    let v1, i1, x1 = num_operand tys e1 and v2, i2, x2 = num_operand tys e2 in
    fun s ->
      let x =
        if v1 < 0 then x1
        else if i1 then float_of_int (Array.unsafe_get s.ival v1)
        else Array.unsafe_get s.fval v1
      in
      let y =
        if v2 < 0 then x2
        else if i2 then float_of_int (Array.unsafe_get s.ival v2)
        else Array.unsafe_get s.fval v2
      in
      float_cmp op x y
  | _ ->
    let c1 = compile_float tys e1 and c2 = compile_float tys e2 in
    fun s ->
      let x = c1 s in
      let y = c2 s in
      float_cmp op x y

and compile_float tys (e : Expr.t) : cfloat =
  match e with
  | Const (Value.Int n) ->
    let x = float_of_int n in
    fun _ -> x
  | Const (Value.Real x) -> fun _ -> x
  | _ -> (
    match stype tys e with
    | Some Tint ->
      let c = compile_int tys e in
      fun s -> float_of_int (c s)
    | Some Treal -> real_typed tys e
    | Some Tbool | None ->
      let c = compile_value tys e in
      fun s -> Value.as_float (c s))

(* A [Real]-typed expression on floats: the payload of the [Real] that
   [Expr.eval] gives, bit for bit.  An [Int] operand is computed on
   ints and converted, as [Value] converts it. *)
and real_typed tys (e : Expr.t) : cfloat =
  match e with
  | Const (Value.Real x) -> fun _ -> x
  | Var v -> fun s -> Array.unsafe_get s.fval v
  | Unop (Neg, e1) ->
    let c = real_typed tys e1 in
    fun s -> -.(c s)
  | Binop (Add, e1, e2) ->
    let c1 = compile_float tys e1 and c2 = compile_float tys e2 in
    fun s ->
      let x = c1 s in
      let y = c2 s in
      x +. y
  | Binop (Sub, e1, e2) ->
    let c1 = compile_float tys e1 and c2 = compile_float tys e2 in
    fun s ->
      let x = c1 s in
      let y = c2 s in
      x -. y
  | Binop (Mul, e1, e2) ->
    let c1 = compile_float tys e1 and c2 = compile_float tys e2 in
    fun s ->
      let x = c1 s in
      let y = c2 s in
      x *. y
  | Binop (Div, e1, e2) ->
    let c1 = compile_float tys e1 and c2 = compile_float tys e2 in
    fun s ->
      let x = c1 s in
      let y = c2 s in
      if y = 0.0 then raise (Value.Type_error "division by zero") else x /. y
  | Binop (Min, e1, e2) ->
    let c1 = compile_float tys e1 and c2 = compile_float tys e2 in
    fun s ->
      let x = c1 s in
      let y = c2 s in
      if Float.compare x y <= 0 then x else y
  | Binop (Max, e1, e2) ->
    let c1 = compile_float tys e1 and c2 = compile_float tys e2 in
    fun s ->
      let x = c1 s in
      let y = c2 s in
      if Float.compare x y >= 0 then x else y
  | Ite (c, e1, e2) ->
    let cc = bool_typed tys c and c1 = real_typed tys e1 and c2 = real_typed tys e2 in
    fun s -> if cc s then c1 s else c2 s
  | Const _ | Loc _ | Unop (Not, _)
  | Binop ((Mod | And | Or | Implies | Eq | Neq | Lt | Le | Gt | Ge), _, _) ->
    invalid_arg "Compiled.real_typed"

(* An [Int]-typed expression on ints: [Value.add] and the rest on two
   [Int]s, operands evaluated left to right, and a zero divisor raising
   [Value.div]'s and [Value.modulo]'s own errors. *)
and compile_int tys (e : Expr.t) : cstate -> int =
  match e with
  | Const (Value.Int n) -> fun _ -> n
  | Var v -> fun s -> Array.unsafe_get s.ival v
  | Unop (Neg, e1) ->
    let c = compile_int tys e1 in
    fun s -> -c s
  | Binop (op, e1, e2) -> (
    let c1 = compile_int tys e1 and c2 = compile_int tys e2 in
    match op with
    | Add -> fun s ->
        let x = c1 s in
        let y = c2 s in
        x + y
    | Sub -> fun s ->
        let x = c1 s in
        let y = c2 s in
        x - y
    | Mul -> fun s ->
        let x = c1 s in
        let y = c2 s in
        x * y
    | Div -> fun s ->
        let x = c1 s in
        let y = c2 s in
        if y = 0 then raise (Value.Type_error "integer division by zero") else x / y
    | Mod -> fun s ->
        let x = c1 s in
        let y = c2 s in
        if y = 0 then raise (Value.Type_error "modulo by zero") else x mod y
    | Min -> fun s ->
        let x = c1 s in
        let y = c2 s in
        if x <= y then x else y
    | Max -> fun s ->
        let x = c1 s in
        let y = c2 s in
        if x >= y then x else y
    | And | Or | Implies | Eq | Neq | Lt | Le | Gt | Ge -> invalid_arg "Compiled.compile_int")
  | Ite (c, e1, e2) ->
    let cc = bool_typed tys c and c1 = compile_int tys e1 and c2 = compile_int tys e2 in
    fun s -> if cc s then c1 s else c2 s
  | Const _ | Loc _ | Unop (Not, _) -> invalid_arg "Compiled.compile_int"

(* Staged [Linear.eval_sym] / [Linear.sat_set]: the delay-dependent
   symbolic evaluation with the AST dispatch done once. *)
and compile_sym tys (e : Expr.t) : cstate -> Linear.sval =
  match e with
  | Const v -> fun _ -> Linear.Disc v
  | Var v when is_real tys v ->
    fun s ->
      let r = s.rates.(v) and x = Array.unsafe_get s.fval v in
      if r = 0.0 then Linear.Disc (Value.Real x) else Linear.Num { a = x; b = r }
  | Var v ->
    fun s ->
      let r = s.rates.(v) in
      if r = 0.0 then Linear.Disc (value s v)
      else Linear.Num { a = Value.as_float (value s v); b = r }
  | Loc (p, l) -> fun s -> Linear.Disc (vbool (s.locs.(p) = l))
  | Unop (Neg, e1) ->
    let c = compile_sym tys e1 in
    fun s ->
      (match c s with
      | Linear.Disc v -> Linear.Disc (Value.neg v)
      | Linear.Num { a; b } -> Linear.Num { a = -.a; b = -.b })
  | Unop (Not, _) | Binop ((And | Or | Implies | Eq | Neq | Lt | Le | Gt | Ge), _, _)
    ->
    let c = compile_value tys e in
    fun s -> Linear.Disc (c s)
  | Binop (Add, e1, e2) -> compile_lift2 tys ( +. ) Value.add e1 e2
  | Binop (Sub, e1, e2) -> compile_lift2 tys ( -. ) Value.sub e1 e2
  | Binop (Mul, e1, e2) ->
    let c1 = compile_sym tys e1 and c2 = compile_sym tys e2 in
    fun s ->
      let s1 = c1 s in
      let s2 = c2 s in
      (match s1, s2 with
      | Linear.Disc v1, Linear.Disc v2 -> Linear.Disc (Value.mul v1 v2)
      | Linear.Num l, Linear.Disc v | Linear.Disc v, Linear.Num l ->
        let c = Value.as_float v in
        Linear.Num { a = l.a *. c; b = l.b *. c }
      | Linear.Num l1, Linear.Num l2 ->
        if l1.b = 0.0 then Linear.Num { a = l1.a *. l2.a; b = l1.a *. l2.b }
        else if l2.b = 0.0 then Linear.Num { a = l1.a *. l2.a; b = l2.a *. l1.b }
        else raise (Linear.Nonlinear "product of two delay-dependent terms"))
  | Binop (Div, e1, e2) ->
    let c1 = compile_sym tys e1 and c2 = compile_sym tys e2 in
    fun s ->
      let s1 = c1 s in
      let s2 = c2 s in
      (match s2 with
      | Linear.Disc v2 when not (Value.is_numeric v2) ->
        Linear.Disc (Value.div (Value.Real 0.0) v2) (* raises the type error *)
      | Linear.Disc v2 -> (
        let c = Value.as_float v2 in
        if c = 0.0 then raise (Value.Type_error "division by zero")
        else
          match s1 with
          | Linear.Disc v1 -> Linear.Disc (Value.div v1 v2)
          | Linear.Num l -> Linear.Num { a = l.a /. c; b = l.b /. c })
      | Linear.Num l2 ->
        if l2.b = 0.0 then begin
          (* [Linear] restages with a [Real l2.a] divisor; inline it. *)
          let c = l2.a in
          if c = 0.0 then raise (Value.Type_error "division by zero")
          else
            match s1 with
            | Linear.Disc v1 -> Linear.Disc (Value.div v1 (Value.Real c))
            | Linear.Num l -> Linear.Num { a = l.a /. c; b = l.b /. c }
        end
        else raise (Linear.Nonlinear "division by a delay-dependent term"))
  | Binop (Mod, e1, e2) ->
    let c1 = compile_sym tys e1 and c2 = compile_sym tys e2 in
    fun s ->
      let s1 = c1 s in
      let s2 = c2 s in
      (match s1, s2 with
      | Linear.Disc v1, Linear.Disc v2 -> Linear.Disc (Value.modulo v1 v2)
      | _ -> raise (Linear.Nonlinear "mod of a delay-dependent term"))
  | Binop ((Min | Max) as op, e1, e2) ->
    let c1 = compile_sym tys e1 and c2 = compile_sym tys e2 in
    let f = if op = Min then Value.min_v else Value.max_v in
    fun s ->
      let s1 = c1 s in
      let s2 = c2 s in
      (match s1, s2 with
      | Linear.Disc v1, Linear.Disc v2 -> Linear.Disc (f v1 v2)
      | _ -> raise (Linear.Nonlinear "min/max of a delay-dependent term"))
  | Ite (c, e1, e2) ->
    let cc = compile_sat tys c and c1 = compile_sym tys e1 and c2 = compile_sym tys e2 in
    fun s ->
      let cset = cc s in
      if I.equal cset I.full then c1 s
      else if I.is_empty cset then c2 s
      else raise (Linear.Nonlinear "if-then-else condition depends on the delay")

and compile_lift2 tys fop vop e1 e2 =
  let c1 = compile_sym tys e1 and c2 = compile_sym tys e2 in
  fun s ->
    let s1 = c1 s in
    let s2 = c2 s in
    match s1, s2 with
    | Linear.Disc v1, Linear.Disc v2 -> Linear.Disc (vop v1 v2)
    | _ ->
      let l1 = Linear.promote s1 and l2 = Linear.promote s2 in
      Linear.Num { a = fop l1.Linear.a l2.Linear.a; b = fop l1.Linear.b l2.Linear.b }

and compile_sat tys (e : Expr.t) : csat =
  match e with
  | Const (Value.Bool true) -> fun _ -> I.full
  | Const (Value.Bool false) -> fun _ -> I.empty
  | Const v -> fun _ -> if Value.as_bool v then I.full else I.empty
  | Var _ | Loc _ ->
    let c = compile_bool tys e in
    fun s -> if c s then I.full else I.empty
  | Unop (Not, e1) ->
    let c = compile_sat tys e1 in
    fun s -> I.complement (c s)
  | Unop (Neg, _) ->
    fun _ -> raise (Value.Type_error "numeric expression used as a guard")
  | Binop (And, e1, e2) ->
    let c1 = compile_sat tys e1 and c2 = compile_sat tys e2 in
    fun s ->
      let s1 = c1 s in
      let s2 = c2 s in
      I.inter s1 s2
  | Binop (Or, e1, e2) ->
    let c1 = compile_sat tys e1 and c2 = compile_sat tys e2 in
    fun s ->
      let s1 = c1 s in
      let s2 = c2 s in
      I.union s1 s2
  | Binop (Implies, e1, e2) ->
    let c1 = compile_sat tys e1 and c2 = compile_sat tys e2 in
    fun s ->
      let s1 = c1 s in
      let s2 = c2 s in
      I.union (I.complement s1) s2
  | Binop ((Eq | Neq | Lt | Le | Gt | Ge) as op, e1, e2) ->
    let c1 = compile_sym tys e1 and c2 = compile_sym tys e2 in
    fun s ->
      let s1 = c1 s in
      let s2 = c2 s in
      (match s1, s2 with
      | Linear.Disc v1, Linear.Disc v2 ->
        let holds =
          match op with
          | Eq -> Value.equal v1 v2
          | Neq -> not (Value.equal v1 v2)
          | Lt -> Value.compare_num v1 v2 < 0
          | Le -> Value.compare_num v1 v2 <= 0
          | Gt -> Value.compare_num v1 v2 > 0
          | Ge -> Value.compare_num v1 v2 >= 0
          | _ -> assert false
        in
        if holds then I.full else I.empty
      | _ ->
        let l1 = Linear.promote s1 and l2 = Linear.promote s2 in
        Linear.solve_cmp op
          { Linear.a = l1.Linear.a -. l2.Linear.a; b = l1.Linear.b -. l2.Linear.b })
  | Binop ((Add | Sub | Mul | Div | Mod | Min | Max), _, _) ->
    fun _ -> raise (Value.Type_error "numeric expression used as a guard")
  | Ite (c, e1, e2) ->
    let cc = compile_sat tys c and c1 = compile_sat tys e1 and c2 = compile_sat tys e2 in
    fun s ->
      let cset = cc s in
      let s1 = c1 s in
      let s2 = c2 s in
      I.union (I.inter cset s1) (I.inter (I.complement cset) s2)

(* [compile_win tys e k] is [compile_sat tys e] writing its result into
   evaluator slot [k] (using the slots above [k] as scratch) instead of
   returning an [Interval_set.t]: guards and invariants over clocks and
   data then cost no allocation.  Returns the closure and the highest slot used.
   Comparisons no delay changes ([untimed]), comparisons of two numeric
   variables or constants, Boolean atoms, negation, conjunction and
   disjunction are evaluated in place; anything else goes through
   [compile_sat] and is stored as it comes. *)
let rec compile_win tys (e : Expr.t) k : (cstate -> unit) * int =
  match e with
  | Const (Value.Bool true) -> ((fun s -> w_set_full s.ev k), k)
  | Const (Value.Bool false) -> ((fun s -> w_set_empty s.ev k), k)
  | Const v ->
    ((fun s -> if Value.as_bool v then w_set_full s.ev k else w_set_empty s.ev k), k)
  | Var _ | Loc _ ->
    let c = compile_bool tys e in
    ((fun s -> if c s then w_set_full s.ev k else w_set_empty s.ev k), k)
  | Unop (Not, e1) ->
    let c1, m = compile_win tys e1 k in
    ( (fun s ->
        c1 s;
        w_complement s.ev k),
      m )
  | Binop ((And | Or | Implies) as op, e1, e2) ->
    let c1, m1 = compile_win tys e1 k in
    let c2, m2 = compile_win tys e2 (k + 1) in
    let f =
      match op with
      | And ->
        fun s ->
          c1 s;
          c2 s;
          w_inter s.ev k s.ev k s.ev (k + 1)
      | Or ->
        fun s ->
          c1 s;
          c2 s;
          w_union s.ev k s.ev k s.ev (k + 1)
      | _ ->
        fun s ->
          c1 s;
          c2 s;
          w_complement s.ev k;
          w_union s.ev k s.ev k s.ev (k + 1)
    in
    (f, max m1 m2)

  | Binop ((Eq | Neq | Lt | Le | Gt | Ge), _, _) when untimed tys e ->
    (* every operand is [Disc]: the comparison as a Boolean *)
    let c = bool_typed tys e in
    ((fun s -> if c s then w_set_full s.ev k else w_set_empty s.ev k), k)
  | Binop
      ( ((Eq | Neq | Lt | Le | Gt | Ge) as op),
        ((Var _ | Const _) as e1),
        ((Var _ | Const _) as e2) )
    when stype tys e <> None ->
    (* two numbers, one of them a real variable: [compile_sym] on each
       side gives [Num {a = value; b = rate}] for a variable with a
       non-zero rate and [Disc value] otherwise, and two [Disc] numbers
       compare as [Value] compares them *)
    let v1, i1, x1 = num_operand tys e1 and v2, i2, x2 = num_operand tys e2 in
    ( (fun s ->
        let b1 = if v1 < 0 then 0.0 else s.rates.(v1) in
        let b2 = if v2 < 0 then 0.0 else s.rates.(v2) in
        let a1 =
          if v1 < 0 then x1
          else if i1 then float_of_int (Array.unsafe_get s.ival v1)
          else Array.unsafe_get s.fval v1
        in
        let a2 =
          if v2 < 0 then x2
          else if i2 then float_of_int (Array.unsafe_get s.ival v2)
          else Array.unsafe_get s.fval v2
        in
        if b1 = 0.0 && b2 = 0.0 then
          if float_cmp op a1 a2 then w_set_full s.ev k else w_set_empty s.ev k
        else begin
          (* [Linear.promote]: a [Disc] side has slope +0 *)
          let b1 = if b1 = 0.0 then 0.0 else b1 and b2 = if b2 = 0.0 then 0.0 else b2 in
          w_solve_cmp s.ev k op (a1 -. a2) (b1 -. b2)
        end),
      k )
  | _ ->
    let c = compile_sat tys e in
    ((fun s -> w_of_set s.ev k (c s)), k)

(* ------------------------------------------------------------------ *)
(* Compiled network tables                                            *)

type ctrans = {
  tr_id : int;  (* index into [Automaton.transitions], for parity with the interpreter *)
  t_dst : int;
  t_win : cstate -> unit;  (* the guard's delay window, into slot [ev_root] *)
  t_rate : float;  (* 0 for guarded transitions *)
  t_updates : (cstate -> unit) array;  (* each evaluates and stores one update *)
  t_marks : int array;  (* flows its updates and location switch can change *)
  t_free : bool;  (* a trial-free local transition, see [stage] *)
}

type cloc = {
  inv_trivial : bool;
  inv_win : cstate -> unit;  (* the invariant's window, into slot [ev_root] *)
  inv_bool : cbool;
  l_derivs : (int * float) array;
  tau : ctrans array;  (* guarded τ transitions, in outgoing order *)
  by_event : ctrans array array;  (* guarded event transitions, per event *)
  markov : ctrans array;  (* rate transitions, in outgoing order *)
}

type cproc = {
  active_trivial : bool;
  active : cbool;
  p_initial : int;
  p_trans : ctrans array;  (* all transitions, indexed by [tr_id] *)
  p_locs : cloc array;
  p_owned : int array;
  p_marks : int array;  (* flows a restart can change *)
}

type t = {
  net : Network.t;
  cprocs : cproc array;
  sync_parts : int array array;  (* per event, its participants *)
  sync_skip : bool array;
      (* per event, no guard on it can raise: [sync_moves] may skip it
         unevaluated when an active participant has no candidate *)
  restart_procs : int array;  (* processes with a [Restart] policy *)
  (* The processes the per-state loops visit, in order: a process whose
     activation is trivial and that has no invariant (no τ transition,
     no rate transition) in any location adds nothing there. *)
  inv_procs : int array;
  tau_procs : int array;
  markov_procs : int array;
  f_store : (cstate -> bool) array;
      (* per flow, evaluate and store its target: whether its value changed *)
  f_deps : int array array;  (* per flow, the later flows reading its target *)
  time_marks : int array;  (* flows a delay can change *)
  timed_vars : int array;  (* variables that can have a non-zero rate *)
  tys : types;  (* the declared types, shared by every scratch *)
  ints0 : int array;  (* the initial values in [ival] *)
  reals0 : float array;  (* the initial values in [fval] *)
  clocks : (int * int) array;  (* (var, owner + 1); 0 = unowned *)
  n_vars : int;
  n_procs : int;
  n_flows : int;
  n_markov : int;
  n_slots : int;  (* evaluator slots the compiled windows use *)
}

let network c = c.net

(* Processes whose location the expression reads. *)
let loc_reads e =
  let rec go acc = function
    | Expr.Const _ | Var _ -> acc
    | Loc (p, _) -> p :: acc
    | Unop (_, e1) -> go acc e1
    | Binop (_, e1, e2) -> go (go acc e1) e2
    | Ite (c, e1, e2) -> go (go (go acc c) e1) e2
  in
  go [] e

let int_set l = Array.of_list (List.sort_uniq compare l)

let stage (net : Network.t) : t =
  Slimsim_obs.Phase.run "stage" @@ fun () ->
  let n_events = Array.length net.events in
  let n_vars = Array.length net.vars in
  let n_procs = Array.length net.procs in
  let flows = net.flows in
  (* The flow dependency tables.  A flow's value depends only on the
     variables and locations its expression reads, so a write can
     change it only if it writes one of those or the flow's target. *)
  let var_flows = Array.make (max n_vars 1) [] in
  let proc_flows = Array.make (max n_procs 1) [] in
  Array.iteri
    (fun f (fl : Network.flow) ->
      var_flows.(fl.target) <- f :: var_flows.(fl.target);
      List.iter (fun v -> var_flows.(v) <- f :: var_flows.(v)) (Expr.free_vars fl.expr);
      List.iter (fun p -> proc_flows.(p) <- f :: proc_flows.(p)) (loc_reads fl.expr))
    flows;
  let writes vs = List.concat_map (fun v -> var_flows.(v)) vs in
  let f_deps =
    Array.mapi
      (fun f (fl : Network.flow) ->
        (* [Network.make] orders flows so that readers come later *)
        int_set (List.filter (fun g -> g > f) var_flows.(fl.target)))
      flows
  in
  let derived =
    Array.fold_left
      (fun acc (proc : Automaton.t) ->
        Array.fold_left
          (fun acc (l : Automaton.location) -> List.map fst l.derivs @ acc)
          acc proc.locations)
      [] net.procs
  in
  let vars_of kind =
    List.filter (fun v -> net.vars.(v).Network.kind = kind) (List.init n_vars Fun.id)
  in
  let timed_vars = int_set (vars_of Network.Clock @ derived) in
  let continuous = vars_of Network.Continuous in
  let time_marks = int_set (writes (Array.to_list timed_vars @ continuous)) in
  let tys = Array.map (fun (info : Network.var_info) -> Value.type_of info.init) net.vars in
  (* An update or a flow writes its target's store: [Network.make] has
     checked that the expression has the target's type.  A real
     variable or constant is read without a closure call, as a float
     returned by a closure is boxed. *)
  let compile_ival (e : Expr.t) =
    if stype tys e = Some Tbool then begin
      let c = bool_typed tys e in
      fun s -> Bool.to_int (c s)
    end
    else compile_int tys e
  in
  let store (v, (e : Expr.t)) =
    match tys.(v), e with
    | Treal, Var w -> fun s -> set_f s v (Array.unsafe_get s.fval w)
    | Treal, Const (Value.Real x) -> fun s -> set_f s v x
    | Treal, _ ->
      let c = real_typed tys e in
      fun s -> set_f s v (c s)
    | (Tint | Tbool), _ ->
      let c = compile_ival e in
      fun s -> set_i s v (c s)
  in
  let flow_store (v, (e : Expr.t)) =
    match tys.(v), e with
    (* a value that differs, its bits included; the test is written out
       twice, as a function taking the float is not inlined here and
       would box it *)
    | Treal, Var w ->
      fun s ->
        let x = Array.unsafe_get s.fval w in
        (not (same_bits x (Array.unsafe_get s.fval v))) && (set_f s v x; true)
    | Treal, _ ->
      let c = real_typed tys e in
      fun s ->
        let x = c s in
        (not (same_bits x (Array.unsafe_get s.fval v))) && (set_f s v x; true)
    | (Tint | Tbool), _ ->
      let c = compile_ival e in
      fun s ->
        let x = c s in
        x <> Array.unsafe_get s.ival v
        && begin
          set_i s v x;
          true
        end
  in
  let max_slot = ref ev_root in
  let win e =
    let c, m = compile_win tys e ev_root in
    max_slot := max !max_slot m;
    c
  in
  (* Trial-free local transitions: [enabled_after] decides a candidate
     whose transition is trial-free from one check shared by all of
     them, without firing it (see there).  The flag is set on a guarded
     τ transition when
     (a) none of its updates can raise (none divides, see
         [may_raise]), and neither can a flow its updates or location
         switch mark, nor one those flows mark in turn;
     (b) nothing it writes (those variables, the targets of those
         flows, its process's location) is read by a non-trivial
         activation condition or by another process's invariant;
     (c) its destination invariant is trivial, or reads only variables
         the transition sets to constants, none of them a flow target,
         and holds at those constants. *)
  let act_vars = Bytes.make (max n_vars 1) '\000' in
  let act_procs = Bytes.make (max n_procs 1) '\000' in
  Array.iter
    (fun (meta : Network.proc_meta) ->
      if meta.active_when <> Expr.true_ then begin
        List.iter (fun v -> Bytes.set act_vars v '\001') (Expr.free_vars meta.active_when);
        List.iter (fun p -> Bytes.set act_procs p '\001') (loc_reads meta.active_when)
      end)
    net.meta;
  (* per variable and per process, the processes with an invariant
     reading it *)
  let inv_vars = Array.make (max n_vars 1) [] and inv_locs = Array.make (max n_procs 1) [] in
  Array.iteri
    (fun q (proc : Automaton.t) ->
      Array.iter
        (fun (l : Automaton.location) ->
          List.iter (fun v -> inv_vars.(v) <- q :: inv_vars.(v)) (Expr.free_vars l.invariant);
          List.iter (fun p -> inv_locs.(p) <- q :: inv_locs.(p)) (loc_reads l.invariant))
        proc.locations)
    net.procs;
  let targets = Bytes.make (max n_vars 1) '\000' in
  Array.iter (fun (fl : Network.flow) -> Bytes.set targets fl.target '\001') flows;
  (* the flows [fs] and every flow they mark in turn *)
  let seen = Bytes.make (max (Array.length flows) 1) '\000' in
  let reach fs =
    let reached = ref [] in
    let rec go f =
      if Bytes.get seen f = '\000' then begin
        Bytes.set seen f '\001';
        reached := f :: !reached;
        Array.iter go f_deps.(f)
      end
    in
    Array.iter go fs;
    List.iter (fun f -> Bytes.set seen f '\000') !reached;
    !reached
  in
  let flow_safe = Array.map (fun (fl : Network.flow) -> not (may_raise tys fl.expr)) flows in
  (* a scratch to evaluate an invariant at the constants a transition
     sets: it reads nothing else *)
  let consts_scratch =
    lazy (make_cstate ~n_procs ~ty:tys ~n_flows:0 ~n_markov:0 ~n_slots:(ev_root + 1))
  in
  let lands_safely (tr : Automaton.transition) (inv : Expr.t) =
    inv = Expr.true_
    ||
    let last v = List.fold_left (fun acc (w, e) -> if w = v then Some e else acc) None tr.updates in
    let consts =
      List.map
        (fun v ->
          match last v with
          | Some (Expr.Const x) when Bytes.get targets v = '\000' -> Some (v, x)
          | _ -> None)
        (Expr.free_vars inv)
    in
    loc_reads inv = []
    && List.for_all Option.is_some consts
    &&
    let s = Lazy.force consts_scratch in
    List.iter
      (function
        | Some (v, x) ->
          s.ival.(v) <- ival_of x;
          s.fval.(v) <- fval_of x
        | None -> ())
      consts;
    match compile_bool tys inv s with b -> b | exception _ -> false
  in
  let trial_free p (tr : Automaton.transition) marks =
    match tr.label, tr.guard with
    | Automaton.Tau, Automaton.Guard _ ->
      let reached = reach marks in
      let written = List.map fst tr.updates @ List.map (fun f -> flows.(f).Network.target) reached in
      let others = List.exists (fun q -> q <> p) in
      List.for_all (fun (_, e) -> not (may_raise tys e)) tr.updates
      && List.for_all (fun f -> flow_safe.(f)) reached
      && List.for_all (fun v -> Bytes.get act_vars v = '\000' && not (others inv_vars.(v))) written
      && Bytes.get act_procs p = '\000'
      && (not (others inv_locs.(p)))
      && lands_safely tr net.procs.(p).locations.(tr.dst).invariant
    | _ -> false
  in
  let sync_skip = Array.make (max n_events 1) true in
  Array.iter
    (fun (proc : Automaton.t) ->
      Array.iter
        (fun (tr : Automaton.transition) ->
          match tr.label, tr.guard with
          | Automaton.Event e, Automaton.Guard g -> if not (win_safe tys g) then sync_skip.(e) <- false
          | _ -> ())
        proc.transitions)
    net.procs;
  let no_window : cstate -> unit = fun s -> w_set_full s.ev ev_root in
  let no_candidates : ctrans array array = Array.make (max n_events 1) [||] in
  let cprocs =
    Array.mapi
      (fun p (proc : Automaton.t) ->
        let meta = net.meta.(p) in
        let p_trans =
          Array.mapi
            (fun i (tr : Automaton.transition) ->
                 let t_marks =
                   int_set (writes (List.map fst tr.Automaton.updates) @ proc_flows.(p))
                 in
                 {
                   tr_id = i;
                   t_dst = tr.Automaton.dst;
                   t_win =
                     (match tr.Automaton.guard with
                     | Automaton.Guard g -> win g
                     | Automaton.Rate _ -> no_window);
                   t_rate =
                     (match tr.Automaton.guard with
                     | Automaton.Rate r -> r
                     | Automaton.Guard _ -> 0.0);
                   t_updates = Array.of_list (List.map store tr.Automaton.updates);
                   t_marks;
                   t_free = trial_free p tr t_marks;
                 })
            proc.transitions
        in
        let p_locs =
          Array.mapi
            (fun l (loc : Automaton.location) ->
              let out = proc.outgoing.(l) in
              let pick f =
                Array.of_list
                  (List.filter_map
                     (fun ti ->
                       let tr = proc.transitions.(ti) in
                       if f tr then Some p_trans.(ti) else None)
                     out)
              in
              let tau =
                pick (fun tr ->
                    match tr.Automaton.label, tr.Automaton.guard with
                    | Automaton.Tau, Automaton.Guard _ -> true
                    | _ -> false)
              in
              let markov =
                pick (fun tr ->
                    match tr.Automaton.guard with
                    | Automaton.Rate _ -> true
                    | Automaton.Guard _ -> false)
              in
              let has_events =
                List.exists
                  (fun ti ->
                    match proc.transitions.(ti).Automaton.label with
                    | Automaton.Event _ -> true
                    | Automaton.Tau -> false)
                  out
              in
              let by_event =
                if not has_events then no_candidates
                else
                  Array.init n_events (fun e ->
                      pick (fun tr ->
                          match tr.Automaton.label, tr.Automaton.guard with
                          | Automaton.Event e', Automaton.Guard _ -> e' = e
                          | _ -> false))
              in
              {
                inv_trivial = loc.Automaton.invariant = Expr.true_;
                inv_win = win loc.Automaton.invariant;
                inv_bool = compile_bool tys loc.Automaton.invariant;
                l_derivs = Array.of_list loc.Automaton.derivs;
                tau;
                by_event;
                markov;
              })
            proc.locations
        in
        {
          active_trivial = meta.Network.active_when = Expr.true_;
          active = compile_bool tys meta.Network.active_when;
          p_initial = proc.Automaton.initial_loc;
          p_trans;
          p_locs;
          p_owned = Array.of_list meta.Network.owned_vars;
          p_marks = int_set (writes meta.Network.owned_vars @ proc_flows.(p));
        })
      net.procs
  in
  let procs_with f =
    Array.of_list
      (List.filter
         (fun p -> (not cprocs.(p).active_trivial) || Array.exists f cprocs.(p).p_locs)
         (List.init n_procs Fun.id))
  in
  {
    net;
    cprocs;
    inv_procs = procs_with (fun cl -> not cl.inv_trivial);
    tau_procs = procs_with (fun cl -> Array.length cl.tau > 0);
    markov_procs = procs_with (fun cl -> Array.length cl.markov > 0);
    sync_parts = Array.map Array.of_list net.participants;
    sync_skip;
    restart_procs =
      Array.of_list
        (List.filter
           (fun p -> net.meta.(p).Network.reactivation = Network.Restart)
           (List.init n_procs Fun.id));
    f_store = Array.map (fun (f : Network.flow) -> flow_store (f.target, f.expr)) flows;
    f_deps;
    time_marks;
    timed_vars;
    tys;
    ints0 = Array.map (fun (v : Network.var_info) -> ival_of v.init) net.vars;
    reals0 = Array.map (fun (v : Network.var_info) -> fval_of v.init) net.vars;
    clocks =
      Array.of_list
        (List.filter_map
           (fun (v, (info : Network.var_info)) ->
             match info.kind with
             | Network.Clock ->
               Some (v, match info.owner with None -> 0 | Some p -> p + 1)
             | Network.Discrete | Network.Continuous -> None)
           (List.mapi (fun v info -> (v, info)) (Array.to_list net.vars)));
    n_vars;
    n_procs;
    n_flows = Array.length flows;
    n_markov =
      Array.fold_left
        (fun acc cp ->
          acc + Array.fold_left (fun a cl -> a + Array.length cl.markov) 0 cp.p_locs)
        0 cprocs;
    n_slots = !max_slot + 1;
  }

(* The last network staged: the pre-pass's P=1 walk and the campaign
   after it compile it once.  A compiled network is immutable. *)
let last = Atomic.make None

let compile net =
  match Atomic.get last with
  | Some (n, c) when n == net -> c
  | _ ->
    let c = stage net in
    Atomic.set last (Some (net, c));
    c

let proc_active c s p =
  let cp = c.cprocs.(p) in
  cp.active_trivial || cp.active s

(* ------------------------------------------------------------------ *)
(* Scratch-state operations                                           *)

let scratch c =
  let s =
    make_cstate ~n_procs:c.n_procs ~ty:c.tys ~n_flows:c.n_flows ~n_markov:c.n_markov
      ~n_slots:c.n_slots
  in
  Array.blit c.ints0 0 s.ival 0 c.n_vars;
  Array.blit c.reals0 0 s.fval 0 c.n_vars;
  s

let mark s (flows : int array) =
  let dirty = s.dirty in
  for k = 0 to Array.length flows - 1 do
    let f = Array.unsafe_get flows k in
    if Bytes.get dirty f = '\000' then begin
      Bytes.set dirty f '\001';
      s.n_dirty <- s.n_dirty + 1
    end
  done

let mark_all c s =
  Bytes.fill s.dirty 0 c.n_flows '\001';
  s.n_dirty <- c.n_flows

(* Re-evaluate the dirty flows in dependency order; each one whose
   value changed marks the later flows that read its target.  A flow
   that raises stays dirty.  A flow's expression reads nothing but
   variables and locations, so one whose inputs all hold what they held
   when it last ran would store what it holds already. *)
let apply_flows c s =
  let dirty = s.dirty in
  let f = ref 0 in
  while s.n_dirty > 0 && !f < c.n_flows do
    let i = !f in
    if Bytes.get dirty i <> '\000' then begin
      let changed = (Array.unsafe_get c.f_store i) s in
      Bytes.set dirty i '\000';
      s.n_dirty <- s.n_dirty - 1;
      if changed then mark s (Array.unsafe_get c.f_deps i)
    end;
    incr f
  done

(* At depth 0 the journal runs only from a [load] on: a write the
   journal would not see ends it. *)
let end_origin s =
  if s.depth = 0 then begin
    s.jlen <- -1;
    s.origin <- -1
  end

(* Variable [v] back to its initial value. *)
let init c s v =
  if c.tys.(v) = Value.Treal then set_f s v c.reals0.(v) else set_i s v c.ints0.(v)

let reset c s =
  end_origin s;
  for p = 0 to c.n_procs - 1 do
    set_loc s p c.cprocs.(p).p_initial
  done;
  for v = 0 to c.n_vars - 1 do
    init c s v
  done;
  s.time.(0) <- 0.0;
  mark_all c s;
  apply_flows c s

(* Mirrors [Moves_oracle.rate_array]: clocks of active owners tick at
   1, then location-specific derivatives of active processes
   override.  Without [timed_vars] every rate is 0, as the vector is
   created. *)
let set_rates c s =
  if Array.length c.timed_vars > 0 then begin
    Array.fill s.rates 0 c.n_vars 0.0;
    let clocks = c.clocks in
    for i = 0 to Array.length clocks - 1 do
      let v, owner = clocks.(i) in
      if owner = 0 || proc_active c s (owner - 1) then s.rates.(v) <- 1.0
    done;
    for p = 0 to c.n_procs - 1 do
      let cp = c.cprocs.(p) in
      if cp.active_trivial || cp.active s then begin
        let derivs = cp.p_locs.(s.locs.(p)).l_derivs in
        for i = 0 to Array.length derivs - 1 do
          let v, r = derivs.(i) in
          s.rates.(v) <- r
        done
      end
    done
  end

(* Requires [s.rates] to hold the rate vector of the current state
   (callers refresh it once per step with [set_rates]).  Only the
   [timed_vars] can have a non-zero rate.  The delay is read from the
   scratch's cell [dl], so that no caller passes it boxed. *)
let advance_dl c s =
  let d = s.dl.(0) in
  if d <> 0.0 then begin
    let vs = c.timed_vars in
    for i = 0 to Array.length vs - 1 do
      let v = Array.unsafe_get vs i in
      let r = s.rates.(v) in
      if r <> 0.0 then set_f s v (Array.unsafe_get s.fval v +. (r *. d))
    done;
    s.time.(0) <- s.time.(0) +. d;
    mark s c.time_marks
  end

let advance c s d =
  s.dl.(0) <- d;
  advance_dl c s

let apply_updates s (ups : (cstate -> unit) array) =
  for i = 0 to Array.length ups - 1 do
    ups.(i) s
  done

let restart_proc c s p =
  s.restarts <- s.restarts + 1;
  let cp = c.cprocs.(p) in
  set_loc s p cp.p_initial;
  let owned = cp.p_owned in
  for i = 0 to Array.length owned - 1 do
    init c s owned.(i)
  done;
  mark s cp.p_marks

(* Snapshots: [save] records the journal's length, the time and the
   dirty count, and turns the journal on; [restore] undoes the journal
   down to the top level's mark, last write first, and puts the two
   counts back.  Dirty flags are not journaled, as a move sets and
   clears them: a level saved with dirty flows journals which (a
   [j_dirty] entry each, at its mark), and [restore] clears every flag,
   when some is set, and sets those again.  [drop] forgets the top
   level and keeps the scratch as it is.  Each costs what was written
   under the level, never the size of the state.  [s.rates] is not
   saved: it belongs to whichever state last ran [set_rates]. *)
let save s =
  let d = s.depth in
  if d = Array.length s.sv_mark then begin
    let grow a x =
      let b = Array.make (2 * d) x in
      Array.blit a 0 b 0 d;
      b
    in
    s.sv_mark <- grow s.sv_mark 0;
    s.sv_time <- grow s.sv_time 0.0;
    s.sv_n_dirty <- grow s.sv_n_dirty 0
  end;
  if s.jlen < 0 then s.jlen <- 0;
  s.sv_mark.(d) <- s.jlen;
  s.sv_time.(d) <- s.time.(0);
  s.sv_n_dirty.(d) <- s.n_dirty;
  s.depth <- d + 1;
  if s.n_dirty > 0 then
    for f = 0 to Bytes.length s.dirty - 1 do
      if Bytes.get s.dirty f <> '\000' then journal_int s ((f lsl j_bits) lor j_dirty) 1
    done

(* Undo the entries from [mark] on, but for dirty flags. *)
let undo s mark =
  for e = s.jlen - 1 downto mark do
    let key = Array.unsafe_get s.jkey e in
    let x = key lsr j_bits and kind = key land j_mask in
    if kind = j_loc then Array.unsafe_set s.locs x (Array.unsafe_get s.jint e)
    else if kind = j_int then Array.unsafe_set s.ival x (Array.unsafe_get s.jint e)
    else if kind = j_flt then Array.unsafe_set s.fval x (Array.unsafe_get s.jflt e)
  done;
  s.jlen <- mark

let restore s =
  let d = s.depth - 1 in
  let mark = s.sv_mark.(d) and nd = s.sv_n_dirty.(d) in
  undo s (mark + nd);
  s.time.(0) <- s.sv_time.(d);
  if s.n_dirty > 0 then Bytes.fill s.dirty 0 (Bytes.length s.dirty) '\000';
  for e = mark to mark + nd - 1 do
    Bytes.unsafe_set s.dirty (Array.unsafe_get s.jkey e lsr j_bits) '\001'
  done;
  s.n_dirty <- nd

let drop s =
  let d = s.depth - 1 in
  s.depth <- d;
  if d = 0 && s.origin < 0 then s.jlen <- -1

let depth s = s.depth

(* [State.equal_timeless] between the scratch and the snapshot at level
   [k], over the fields written since: a location or a variable of
   [ival] compared as an int, one of [fval] with [Float.compare], as
   [compare] compares a [Real].  A field's first entry from the level's
   mark on holds what it was at the level; a field with none has not
   changed.  [same] runs over the entries from [e] on, visiting each
   field once. *)
let rec same s epoch e =
  e >= s.jlen
  ||
  let key = Array.unsafe_get s.jkey e in
  let x = key lsr j_bits and kind = key land j_mask in
  if kind = j_dirty then same s epoch (e + 1)
  else begin
    let id = if kind = j_loc then x else s.n_procs + x in
    if Array.unsafe_get s.seen id = epoch then same s epoch (e + 1)
    else begin
      Array.unsafe_set s.seen id epoch;
      (if kind = j_loc then Array.unsafe_get s.locs x = Array.unsafe_get s.jint e
       else if kind = j_int then Array.unsafe_get s.ival x = Array.unsafe_get s.jint e
       else Float.compare (Array.unsafe_get s.fval x) (Array.unsafe_get s.jflt e) = 0)
      && same s epoch (e + 1)
    end
  end

let equal_saved s k =
  s.epoch <- s.epoch + 1;
  same s s.epoch s.sv_mark.(k)

(* Trial execution is a snapshot undone and dropped, on exceptions
   too. *)
let end_trial s =
  restore s;
  drop s

let eval_bool_after c s ~cap (f : cbool) =
  save s;
  match
    advance c s cap;
    f s
  with
  | b ->
    end_trial s;
    b
  | exception e ->
    end_trial s;
    raise e

(* ------------------------------------------------------------------ *)
(* Moves (mirrors [Moves_oracle], table-driven, into the move buffer) *)

(* [Moves_oracle.invariant_window], into slot 0, where [discrete] and the
   [inv_*] readers find it. *)
let invariant_window c s =
  let ev = s.ev in
  if Array.length c.inv_procs = 0 then
    (* no invariant to meet: the window the steps below would leave *)
    w_set ev 0 k_closed 0.0 k_inf infinity
  else begin
    w_set_full ev 0;
    for i = 0 to Array.length c.inv_procs - 1 do
      let p = c.inv_procs.(i) in
      let cp = c.cprocs.(p) in
      if cp.active_trivial || cp.active s then begin
        let cl = cp.p_locs.(s.locs.(p)) in
        if not cl.inv_trivial then begin
          cl.inv_win s;
          w_inter ev 0 ev 0 ev ev_root
        end
      end
    done;
    (* ∩ [0, +inf), then the component containing 0 *)
    w_set ev 1 k_closed 0.0 k_inf infinity;
    w_inter ev 0 ev 0 ev 1;
    if Bytes.get ev.lk 0 = k_gen then
      match I.component_at 0.0 ev.gen.(0) with
      | None -> w_set_empty ev 0
      | Some iv -> w_of_set ev 0 (I.make iv.I.lo iv.I.hi)
    else if not (w_mem 0.0 ev 0) then w_set_empty ev 0
  end

let inv_window s = w_to_set s.ev 0
let inv_is_empty s = w_is_empty s.ev 0
let inv_mem s x = w_mem x s.ev 0

let inv_unbounded s =
  let ev = s.ev in
  let lk = Bytes.get ev.lk 0 in
  if lk = k_empty then false
  else if lk = k_gen then I.sup ev.gen.(0) = I.Pos_inf
  else Bytes.get ev.hk 0 = k_inf

let inv_sup s =
  let ev = s.ev in
  let lk = Bytes.get ev.lk 0 in
  if lk = k_empty then infinity
  else if lk = k_gen then
    match I.sup ev.gen.(0) with I.Fin (b, _) -> b | I.Neg_inf | I.Pos_inf -> infinity
  else if Bytes.get ev.hk 0 = k_inf then infinity
  else ev.hi.(0)

let grow_ints a n =
  let b = Array.make (max n (2 * Array.length a)) 0 in
  Array.blit a 0 b 0 (Array.length a);
  b

let push_part s p tr =
  let k = s.n_parts in
  if k >= Array.length s.pt_proc then begin
    s.pt_proc <- grow_ints s.pt_proc (k + 1);
    s.pt_tr <- grow_ints s.pt_tr (k + 1)
  end;
  s.pt_proc.(k) <- p;
  s.pt_tr.(k) <- tr;
  s.n_parts <- k + 1

(* Buffer a move whose participants are the last [len] pushed parts and
   whose window is [w.(j)]. *)
let push_move s event len w j =
  let i = s.n_moves in
  if i >= Array.length s.mv_event then begin
    s.mv_event <- grow_ints s.mv_event (i + 1);
    s.mv_off <- grow_ints s.mv_off (i + 1);
    s.mv_len <- grow_ints s.mv_len (i + 1);
    s.enabled <- grow_ints s.enabled (i + 1);
    w_grow s.mw (i + 1)
  end;
  s.mv_event.(i) <- event;
  s.mv_off.(i) <- s.n_parts - len;
  s.mv_len.(i) <- len;
  w_copy w j s.mw i;
  s.n_moves <- i + 1

(* Has one of the first [na] active participants of event [e] no
   candidate on it at its location? *)
let rec any_silent c s e na k =
  k < na
  && (let p = s.act.(k) in
      Array.length c.cprocs.(p).p_locs.(s.locs.(p)).by_event.(e) = 0
      || any_silent c s e na (k + 1))

(* Every candidate of every active participant on event [e] (guards are
   evaluated for all of them, as [Moves_oracle.discrete] does), then every
   combination in the interpreter's order: the first participant's
   choice varies slowest.  When an active participant has no candidate
   at its location the event offers no move; unless one of its guards
   could raise ([sync_skip]), no guard is evaluated then. *)
let sync_moves c s e =
  let ev = s.ev in
  let parts = c.sync_parts.(e) in
  let na = ref 0 in
  for k = 0 to Array.length parts - 1 do
    let p = parts.(k) in
    if proc_active c s p then begin
      s.act.(!na) <- p;
      incr na
    end
  done;
  let na = !na in
  if na > 0 && not (c.sync_skip.(e) && any_silent c s e na 0) then begin
    let n_cand = ref 0 and all_offer = ref true in
    for k = 0 to na - 1 do
      let p = s.act.(k) in
      s.cd_start.(k) <- !n_cand;
      let cands = c.cprocs.(p).p_locs.(s.locs.(p)).by_event.(e) in
      for i = 0 to Array.length cands - 1 do
        let tr = cands.(i) in
        tr.t_win s;
        let j = !n_cand in
        if j >= Array.length s.cd_tr then begin
          s.cd_tr <- grow_ints s.cd_tr (j + 1);
          w_grow s.cw (j + 1)
        end;
        w_inter s.cw j ev 0 ev ev_root;
        if not (w_is_empty s.cw j) then begin
          s.cd_tr.(j) <- tr.tr_id;
          n_cand := j + 1
        end
      done;
      if !n_cand = s.cd_start.(k) then all_offer := false
    done;
    s.cd_start.(na) <- !n_cand;
    if !all_offer then begin
      for k = 0 to na - 1 do
        s.odo.(k) <- s.cd_start.(k)
      done;
      let more = ref true in
      while !more do
        w_copy ev 0 ev 1;
        for k = 0 to na - 1 do
          w_inter ev 1 ev 1 s.cw s.odo.(k)
        done;
        if not (w_is_empty ev 1) then begin
          for k = 0 to na - 1 do
            push_part s s.act.(k) s.cd_tr.(s.odo.(k))
          done;
          push_move s e na ev 1
        end;
        (* next combination: the last participant's choice moves first *)
        let k = ref (na - 1) in
        while !k >= 0 && s.odo.(!k) + 1 = s.cd_start.(!k + 1) do
          s.odo.(!k) <- s.cd_start.(!k);
          decr k
        done;
        if !k < 0 then more := false else s.odo.(!k) <- s.odo.(!k) + 1
      done
    end
  end

let discrete c s =
  let ev = s.ev in
  s.n_moves <- 0;
  s.n_parts <- 0;
  if w_is_empty ev 0 then 0
  else begin
    (* Local τ moves, in process then outgoing order. *)
    for k = 0 to Array.length c.tau_procs - 1 do
      let p = c.tau_procs.(k) in
      let cp = c.cprocs.(p) in
      if cp.active_trivial || cp.active s then begin
        let tau = cp.p_locs.(s.locs.(p)).tau in
        for i = 0 to Array.length tau - 1 do
          let tr = tau.(i) in
          tr.t_win s;
          w_inter ev 1 ev 0 ev ev_root;
          if not (w_is_empty ev 1) then begin
            push_part s p tr.tr_id;
            push_move s (-1) 1 ev 1
          end
        done
      end
    done;
    (* Multiway synchronizations. *)
    for e = 0 to Array.length c.sync_parts - 1 do
      sync_moves c s e
    done;
    s.n_moves
  end

let move _c s i : Moves.move =
  let off = s.mv_off.(i) in
  if s.mv_event.(i) < 0 then Moves.Local { proc = s.pt_proc.(off); tr = s.pt_tr.(off) }
  else
    Moves.Sync
      {
        event = s.mv_event.(i);
        parts =
          List.init s.mv_len.(i) (fun k -> (s.pt_proc.(off + k), s.pt_tr.(off + k)));
      }

let window_mem s i x = w_mem x s.mw i

let timed_moves c s =
  List.init s.n_moves (fun i -> { Moves.move = move c s i; window = w_to_set s.mw i })

let moves_first_point s ~eps =
  let d = ref infinity in
  for i = 0 to s.n_moves - 1 do
    d := Float.min !d (w_first_point ~eps s.mw i)
  done;
  !d

(* [Interval_set.sample_uniform u01] over the union of the buffered
   windows, clamped to [(-inf, cap]] when unbounded. *)
let moves_sample_uniform s ~cap u01 =
  let ev = s.ev in
  w_set_empty ev 1;
  for i = 0 to s.n_moves - 1 do
    w_union ev 1 ev 1 s.mw i
  done;
  let lk = Bytes.get ev.lk 1 in
  if lk = k_gen then begin
    let w = ev.gen.(1) in
    I.sample_uniform u01 (if I.is_bounded w then w else I.clamp_above cap w)
  end
  else begin
    if lk <> k_empty && (lk = k_inf || Bytes.get ev.hk 1 = k_inf) then begin
      w_set ev 2 k_inf neg_infinity k_closed cap;
      w_inter ev 1 ev 1 ev 2
    end;
    let lk = Bytes.get ev.lk 1 in
    if lk = k_empty || lk = k_inf || Bytes.get ev.hk 1 = k_inf then None
    else begin
      let a = ev.lo.(1) and b = ev.hi.(1) in
      let m = 0.0 +. (b -. a) in
      if m <= 0.0 then Some a
      else
        let r = u01 m in
        if r <= b -. a then Some (a +. r) else Some b
    end
  end

let markovian c s =
  let n = ref 0 in
  for k = 0 to Array.length c.markov_procs - 1 do
    let p = c.markov_procs.(k) in
    let cp = c.cprocs.(p) in
    if cp.active_trivial || cp.active s then begin
      let markov = cp.p_locs.(s.locs.(p)).markov in
      for i = 0 to Array.length markov - 1 do
        let tr = markov.(i) in
        s.markov_buf.(!n) <- tr.t_rate;
        s.mk_proc.(!n) <- p;
        s.mk_tr.(!n) <- tr.tr_id;
        incr n
      done
    end
  done;
  !n

let markov_proc s i = s.mk_proc.(i)
let markov_tr s i = s.mk_tr.(i)

let invariants_hold c s =
  let ok = ref true in
  for i = 0 to Array.length c.inv_procs - 1 do
    let p = c.inv_procs.(i) in
    let cp = c.cprocs.(p) in
    if !ok && (cp.active_trivial || cp.active s) then begin
      let cl = cp.p_locs.(s.locs.(p)) in
      if (not cl.inv_trivial) && not (cl.inv_bool s) then ok := false
    end
  done;
  !ok

(* Mirrors [Moves_oracle.apply] for the move whose participants are
   [procs.(off) .. procs.(off + len - 1)] with transitions [trs]:
   advance by the delay in [s.dl], updates (participant order), location
   switches, flows, reactivation restarts, flows again.  Only [Restart]
   processes can be restarted, so only their activity is compared
   across the move. *)
let fire c s (procs : int array) (trs : int array) off len =
  advance_dl c s;
  let rp = c.restart_procs in
  for k = 0 to Array.length rp - 1 do
    Bytes.set s.was_active k (if proc_active c s rp.(k) then '\001' else '\000')
  done;
  for k = off to off + len - 1 do
    apply_updates s c.cprocs.(procs.(k)).p_trans.(trs.(k)).t_updates
  done;
  for k = off to off + len - 1 do
    let p = procs.(k) in
    let ct = c.cprocs.(p).p_trans.(trs.(k)) in
    set_loc s p ct.t_dst;
    mark s ct.t_marks
  done;
  apply_flows c s;
  for k = 0 to Array.length rp - 1 do
    let p = rp.(k) in
    if Bytes.get s.was_active k = '\000' && proc_active c s p then restart_proc c s p
  done;
  apply_flows c s

let fire_move c s i = fire c s s.pt_proc s.pt_tr s.mv_off.(i) s.mv_len.(i)

let apply_move c s ~delay i =
  s.dl.(0) <- delay;
  fire_move c s i

let apply_local c s cell p tr =
  s.dl.(0) <- cell.(0);
  s.ap_proc.(0) <- p;
  s.ap_tr.(0) <- tr;
  fire c s s.ap_proc s.ap_tr 0 1

let copy_move s i procs trs k =
  let off = s.mv_off.(i) and len = s.mv_len.(i) in
  for j = 0 to len - 1 do
    procs.(k + j) <- s.pt_proc.(off + j);
    trs.(k + j) <- s.pt_tr.(off + j)
  done;
  len

let apply_parts c s procs trs off len =
  s.dl.(0) <- 0.0;
  fire c s procs trs off len

let apply c s ?(delay = 0.0) (move : Moves.move) =
  s.dl.(0) <- delay;
  match move with
  | Moves.Local { proc; tr } ->
    s.ap_proc.(0) <- proc;
    s.ap_tr.(0) <- tr;
    fire c s s.ap_proc s.ap_tr 0 1
  | Moves.Sync { parts; _ } ->
    (* one transition per participating process *)
    List.iteri
      (fun k (p, ti) ->
        s.ap_proc.(k) <- p;
        s.ap_tr.(k) <- ti)
      parts;
    fire c s s.ap_proc s.ap_tr 0 (List.length parts)

(* Does move [i], after the delay in [s.dl], land in a state where
   every active invariant holds?  Fire it on trial and see. *)
let trial c s i =
  s.trials <- s.trials + 1;
  save s;
  match
    fire_move c s i;
    invariants_hold c s
  with
  | ok ->
    end_trial s;
    ok
  | exception e ->
    end_trial s;
    raise e

let free_move c s i =
  Array.unsafe_get s.mv_event i < 0
  &&
  let off = s.mv_off.(i) in
  c.cprocs.(s.pt_proc.(off)).p_trans.(s.pt_tr.(off)).t_free

(* The check the trial-free candidates share: let the delay in [s.dl]
   pass as any move would (advance, flows, restarts) and count the
   active processes whose invariant fails then, the last of them in [inv_failed].  -1
   when that raised or restarted a process: the caller then tries every
   move, and a raise surfaces from the trial it comes from. *)
let shared_check c s =
  save s;
  let restarts = s.restarts in
  match
    fire c s s.ap_proc s.ap_tr 0 0;
    let fails = ref 0 in
    for i = 0 to Array.length c.inv_procs - 1 do
      let p = c.inv_procs.(i) in
      let cp = c.cprocs.(p) in
      if cp.active_trivial || cp.active s then begin
        let cl = cp.p_locs.(s.locs.(p)) in
        if (not cl.inv_trivial) && not (cl.inv_bool s) then begin
          incr fails;
          s.inv_failed <- p
        end
      end
    done;
    !fails
  with
  | fails ->
    end_trial s;
    if s.restarts = restarts then fails else -1
  | exception _ ->
    end_trial s;
    -1

(* A trial-free move (see [stage]) writes nothing that an activation
   condition or another process's invariant reads, cannot raise, and
   lands where its own invariant holds: its trial would find exactly
   the other active processes' invariants as [shared_check] finds them.
   So it is enabled when none of those failed, and only the moves that
   are not trial-free are fired on trial.  The check itself stays: at
   the upper edge of a window, a clock advanced by [d] can round past
   the bound its invariant set. *)
let rec any_free c s d i =
  i < s.n_moves && ((w_mem d s.mw i && free_move c s i) || any_free c s d (i + 1))

let enabled_after c s d =
  s.dl.(0) <- d;
  let fails = if any_free c s d 0 then shared_check c s else -1 in
  let n = ref 0 in
  for i = 0 to s.n_moves - 1 do
    if
      w_mem d s.mw i
      &&
      if fails >= 0 && free_move c s i then
        fails = 0 || (fails = 1 && s.inv_failed = s.pt_proc.(s.mv_off.(i)))
      else trial c s i
    then begin
      s.enabled.(!n) <- i;
      incr n
    end
  done;
  !n

let trials s = s.trials
let trial_free c ~proc ~tr = c.cprocs.(proc).p_trans.(tr).t_free

let enabled s k = s.enabled.(k)

(* ------------------------------------------------------------------ *)
(* Formulas (goal / hold properties)                                  *)

(* A formula's window is evaluated at slot [f_slot] and up, above the
   slots the crossing keeps its operands in: 0 the invariant window, 1
   the delay window [0, cap], [ev_root] the goal's part of it. *)
let f_slot = ev_root + 1

type formula = {
  f_expr : Expr.t;
  f_trivial : bool;  (* the formula is literally [true] *)
  f_static : bool;  (* it reads no variable with a rate: a delay leaves it as it is *)
  f_bool : cbool;
  f_win : cstate -> unit;  (* [compile_sat] of [f_expr], into slot [f_slot] *)
  f_top : int;  (* the highest slot [f_win] uses *)
}

let compile_formula c e =
  let f_win, f_top = compile_win c.tys e f_slot in
  {
    f_expr = e;
    f_trivial = e = Expr.true_;
    f_static = List.for_all (fun v -> not (Array.mem v c.timed_vars)) (Expr.free_vars e);
    f_bool = compile_bool c.tys e;
    f_win;
    f_top;
  }

(* The formula's delay set within [0, cap] (slot 1) into slot [f_slot]:
   exact for linear expressions; a non-linear one is decided at the
   endpoint [cap] alone, on trial. *)
let within c s f ~cap =
  let ev = s.ev in
  match f.f_win s with
  | () -> w_inter ev f_slot ev f_slot ev 1
  | exception Linear.Nonlinear _ ->
    if eval_bool_after c s ~cap f.f_bool && nonempty k_closed cap k_closed cap then
      w_set ev f_slot k_closed cap k_closed cap
    else w_set_empty ev f_slot

(* [Interval_set.first_point] of a set within [0, cap]: never [None]
   unless the set is empty, and never negative, so -1 can stand for
   none. *)
let[@inline] first_point_within ~eps w i =
  if w_is_empty w i then -1.0 else w_first_point ~eps w i

(* With [b] the goal's set within [0, cap] and [v] the delays in
   [0, cap] where the hold fails, outside [b]:
   [v = diff (inter (complement (hold ∩ [0, cap])) [0, cap]) b], the
   [Interval_set] operations in this order. *)
let until_points c s ~goal ~hold ~eps ~cap (out : float array) =
  let ev = s.ev in
  let top = if hold.f_trivial then goal.f_top else max goal.f_top hold.f_top in
  if top >= Array.length ev.lo then w_grow ev (top + 1);
  if nonempty k_closed 0.0 k_closed cap then w_set ev 1 k_closed 0.0 k_closed cap
  else w_set_empty ev 1;
  within c s goal ~cap;
  out.(0) <- first_point_within ~eps ev f_slot;
  if hold.f_trivial then out.(1) <- -1.0
  else begin
    w_copy ev f_slot ev ev_root;
    within c s hold ~cap;
    w_complement ev f_slot;
    w_inter ev f_slot ev f_slot ev 1;
    (* [Interval_set.diff a b] is [inter a (complement b)] *)
    w_complement ev ev_root;
    w_inter ev f_slot ev f_slot ev ev_root;
    out.(1) <- first_point_within ~eps ev f_slot
  end

(* ------------------------------------------------------------------ *)
(* Interop with the immutable reference representation               *)

let to_state c s : State.t =
  {
    State.locs = Array.sub s.locs 0 c.n_procs;
    vals = Array.init c.n_vars (value s);
    time = s.time.(0);
  }

let loc s p = s.locs.(p)
let locs s = s.locs
let ints s = s.ival
let floats s = s.fval

(* Origins are numbered across all scratches, so that one names a load
   on one scratch. *)
let origins = Atomic.make 0

(* A load at depth 0 turns the journal on from there: it is the origin
   [written] counts from.  Under a snapshot it is journaled as any
   write, and no origin remains. *)
let load c s ~locs ~ints ~floats ~time =
  end_origin s;
  for p = 0 to c.n_procs - 1 do
    set_loc s p locs.(p)
  done;
  for v = 0 to c.n_vars - 1 do
    if c.tys.(v) = Value.Treal then set_f s v floats.(v) else set_i s v ints.(v)
  done;
  s.time.(0) <- time;
  if s.depth = 0 then begin
    s.jlen <- 0;
    s.origin <- Atomic.fetch_and_add origins 1
  end
  else s.origin <- -1

let copy c ~src ~dst =
  load c dst ~locs:src.locs ~ints:src.ival ~floats:src.fval ~time:src.time.(0);
  Bytes.blit src.dirty 0 dst.dirty 0 c.n_flows;
  dst.n_dirty <- src.n_dirty

let origin s = s.origin
let written s = if s.origin < 0 then 0 else s.jlen

let written_field s e =
  let key = s.jkey.(e) in
  let kind = key land j_mask in
  if kind = j_dirty then -1 else if kind = j_loc then key lsr j_bits else s.n_procs + (key lsr j_bits)

let dirty_flows c s =
  List.filter (fun f -> Bytes.get s.dirty f <> '\000') (List.init c.n_flows Fun.id)

(* The expression compilers as the property tests use them: against
   declared types (none by default), whose closures then run only on
   scratches whose variables have those types. *)
let compile_value ?(types = [||]) e = compile_value types e
let compile_bool ?(types = [||]) e = compile_bool types e
let compile_float ?(types = [||]) e = compile_float types e
let compile_sat ?(types = [||]) e = compile_sat types e
let compile_int ?(types = [||]) e = if stype types e = Some Tint then Some (compile_int types e) else None
let compile_real ?(types = [||]) e = if stype types e = Some Treal then Some (real_typed types e) else None

(* For tests: [compile_sat] through the in-place window evaluator. *)
let compile_window ?(types = [||]) e =
  let c, _ = compile_win types e 0 in
  fun s ->
    c s;
    w_to_set s.ev 0
