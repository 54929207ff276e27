(* Staged compilation of an STA network (the UPPAAL-style "compiled
   run-time representation"): expressions become closures, per-location
   move tables are precomputed, and simulation runs on a mutable
   per-worker scratch state instead of immutable snapshots.

   The compiled core is semantically locked to the interpreter
   (Expr.eval / Linear.sat_set / State / test/moves_oracle.ml): every
   float operation is performed in the same order with the same
   primitives, so a compiled path produces a bit-identical verdict
   stream for a fixed seed.  The documented deviations: integer
   arithmetic feeding a comparison is carried in doubles, so integers
   beyond 2^53 would diverge (SLIM integers are small); the *message*
   carried by a [Value.Type_error] from an ill-typed model may differ
   (the exception itself, and hence the verdict/error stream, does
   not); and [apply] evaluates the activation condition of a process
   only when the process has a [Restart] policy, so an activation
   condition that raises only in the intermediate post-delay state
   surfaces at the next step instead.

   A move pays for what it changes.  Data flows are re-evaluated only
   when marked dirty by a write that can change their value (see
   [compile] for the tables), and trial execution copies the unboxed
   arrays but journals the few boxed writes it makes instead of
   copying the value store. *)

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
  mutable locs : int array;
  vals : Value.t array;
      (* authoritative for variable [v] unless [ftag.(v)] is set; one
         array shared by trials, which journal their writes to it *)
  mutable fval : float array;
      (* unboxed numeric store; authoritative where [ftag] is set *)
  mutable ftag : Bytes.t;
  rates : float array;  (* current derivative vector, see [set_rates] *)
  time : float array;  (* singleton cell: flat float array = unboxed *)
  mutable dirty : Bytes.t;
      (* one byte per flow: set when the flow's target may differ from
         its expression; every other target equals its expression *)
  mutable n_dirty : int;
  (* double buffers for trial execution ([enabled_after] lookahead) *)
  mutable spare_locs : int array;
  mutable spare_fval : float array;
  mutable spare_ftag : Bytes.t;
  mutable spare_dirty : Bytes.t;
  saved_time : float array;
  mutable saved_n_dirty : int;
  (* the trial's journal of [vals] writes: (variable, previous box) *)
  mutable jlen : int;  (* -1 outside a trial *)
  mutable jvar : int array;
  mutable jold : Value.t array;
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
let markov_buf s = s.markov_buf

let vtrue = Value.Bool true
let vfalse = Value.Bool false
let vbool b = if b then vtrue else vfalse

(* Inside a trial, record the box a write to [vals] overwrites so that
   [end_trial] can put it back. *)
let journal s v =
  let n = s.jlen in
  if n = Array.length s.jvar then begin
    let m = max 16 (2 * n) in
    let jvar = Array.make m 0 and jold = Array.make m vfalse in
    Array.blit s.jvar 0 jvar 0 n;
    Array.blit s.jold 0 jold 0 n;
    s.jvar <- jvar;
    s.jold <- jold
  end;
  Array.unsafe_set s.jvar n v;
  Array.unsafe_set s.jold n (Array.unsafe_get s.vals v);
  s.jlen <- n + 1

(* [vals]/[fval] coherence: a delay advance writes the unboxed cell and
   sets the tag; a generic read materializes the box once and clears the
   tag; a discrete write stores the box and clears the tag. *)

let get_v s v =
  if Bytes.unsafe_get s.ftag v = '\001' then begin
    let b = Value.Real (Array.unsafe_get s.fval v) in
    if s.jlen >= 0 then journal s v;
    s.vals.(v) <- b;
    Bytes.unsafe_set s.ftag v '\000';
    b
  end
  else Array.unsafe_get s.vals v

let[@inline] get_f s v =
  if Bytes.unsafe_get s.ftag v = '\001' then Array.unsafe_get s.fval v
  else Value.as_float (Array.unsafe_get s.vals v)

(* Read-only views for cost extraction: the current numeric value of a
   variable and its derivative as of the last [set_rates]. *)
let var_float s v = get_f s v
let rate s v = s.rates.(v)

let set_v s v x =
  if s.jlen >= 0 then journal s v;
  s.vals.(v) <- x;
  Bytes.unsafe_set s.ftag v '\000'

let[@inline] set_f s v x =
  Array.unsafe_set s.fval v x;
  Bytes.unsafe_set s.ftag v '\001'

(* A scratch for [n_procs] processes, [n_vars] variables, [n_flows]
   flows, [n_markov] rate transitions and [n_slots] evaluator slots. *)
let make_cstate ~n_procs ~n_vars ~n_flows ~n_markov ~n_slots =
  let np = max n_procs 1 and nv = max n_vars 1 and nf = max n_flows 1 in
  let moves = 16 in
  {
    locs = Array.make np 0;
    vals = Array.make nv vfalse;
    fval = Array.make nv 0.0;
    ftag = Bytes.make nv '\000';
    rates = Array.make nv 0.0;
    time = [| 0.0 |];
    dirty = Bytes.make nf '\000';
    n_dirty = 0;
    spare_locs = Array.make np 0;
    spare_fval = Array.make nv 0.0;
    spare_ftag = Bytes.make nv '\000';
    spare_dirty = Bytes.make nf '\000';
    saved_time = [| 0.0 |];
    saved_n_dirty = 0;
    jlen = -1;
    jvar = Array.make 16 0;
    jold = Array.make 16 vfalse;
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

let cstate_of ~locs ~vals ~rates ~time =
  let s =
    make_cstate ~n_procs:(Array.length locs) ~n_vars:(Array.length vals) ~n_flows:0
      ~n_markov:0 ~n_slots:64
  in
  Array.blit locs 0 s.locs 0 (Array.length locs);
  Array.blit vals 0 s.vals 0 (Array.length vals);
  Array.blit rates 0 s.rates 0 (Array.length rates);
  s.time.(0) <- time;
  s

(* ------------------------------------------------------------------ *)
(* Expression compilation                                             *)

type cvalue = cstate -> Value.t
type cbool = cstate -> bool
type cfloat = cstate -> float
type csat = cstate -> I.t

(* Static shape of an expression's result, used to pick unboxed
   specializations only where they provably agree with [Expr.eval]. *)
type shape = Sbool | Snum | Sunknown

let rec shape : Expr.t -> shape = function
  | Const (Value.Bool _) -> Sbool
  | Const (Value.Int _ | Value.Real _) -> Snum
  | Var _ -> Sunknown
  | Loc _ -> Sbool
  | Unop (Not, _) -> Sbool
  | Unop (Neg, _) -> Snum
  | Binop ((And | Or | Implies | Eq | Neq | Lt | Le | Gt | Ge), _, _) -> Sbool
  | Binop ((Add | Sub | Mul | Div | Mod | Min | Max), _, _) -> Snum
  | Ite (_, a, b) -> (
    match shape a, shape b with
    | Sbool, Sbool -> Sbool
    | Snum, Snum -> Snum
    | _ -> Sunknown)

(* True when the expression, if it evaluates to a number at all, is a
   [Real] — the condition under which float division agrees with
   [Value.div] (which is integer division on two [Int]s). *)
let rec definitely_real : Expr.t -> bool = function
  | Const (Value.Real _) -> true
  | Const _ | Var _ | Loc _ -> false
  | Unop (Neg, e) -> definitely_real e
  | Unop (Not, _) -> false
  | Binop ((Add | Sub | Mul | Div), e1, e2) ->
    definitely_real e1 || definitely_real e2
  | Binop ((Min | Max), e1, e2) -> definitely_real e1 && definitely_real e2
  | Binop ((Mod | And | Or | Implies | Eq | Neq | Lt | Le | Gt | Ge), _, _) ->
    false
  | Ite (_, a, b) -> definitely_real a && definitely_real b

(* A comparison operand that is a variable or a constant, read without
   a closure call (a float returned by a closure is boxed): [(v, _, _)]
   for [Var v], [(-1, c, x)] for [Const c] with [x] its numeric value,
   or NaN when [c] is not numeric ([Value.as_float c] then raises). *)
let operand : Expr.t -> int * Value.t * float = function
  | Var v -> (v, vfalse, 0.0)
  | Const (Value.Int n as c) -> (-1, c, float_of_int n)
  | Const (Value.Real x as c) when x = x -> (-1, c, x)
  | Const c -> (-1, c, nan)
  | _ -> invalid_arg "Compiled.operand"

let is_operand : Expr.t -> bool = function Var _ | Const _ -> true | _ -> false

let rec compile_value (e : Expr.t) : cvalue =
  match e with
  | Const v -> fun _ -> v
  | Var v -> fun s -> get_v s v
  | Loc (p, l) -> fun s -> vbool (s.locs.(p) = l)
  | Unop (Neg, e1) ->
    let c = compile_value e1 in
    fun s -> Value.neg (c s)
  | Unop (Not, e1) ->
    let c = compile_bool e1 in
    fun s -> vbool (not (c s))
  | Binop (And, _, _) | Binop (Or, _, _) | Binop (Implies, _, _)
  | Binop (Eq, _, _) | Binop (Neq, _, _)
  | Binop (Lt, _, _) | Binop (Le, _, _) | Binop (Gt, _, _) | Binop (Ge, _, _) ->
    let c = compile_bool e in
    fun s -> vbool (c s)
  | Binop (op, e1, e2) ->
    let c1 = compile_value e1 and c2 = compile_value e2 in
    let f =
      match op with
      | Add -> Value.add
      | Sub -> Value.sub
      | Mul -> Value.mul
      | Div -> Value.div
      | Mod -> Value.modulo
      | Min -> Value.min_v
      | Max -> Value.max_v
      | _ -> assert false
    in
    fun s ->
      let v1 = c1 s in
      let v2 = c2 s in
      f v1 v2
  | Ite (c, e1, e2) ->
    let cc = compile_bool c and c1 = compile_value e1 and c2 = compile_value e2 in
    fun s -> if cc s then c1 s else c2 s

and compile_bool (e : Expr.t) : cbool =
  match e with
  | Const (Value.Bool b) -> fun _ -> b
  | Const v -> fun _ -> Value.as_bool v
  | Var v -> fun s -> Value.as_bool (get_v s v)
  | Loc (p, l) -> fun s -> s.locs.(p) = l
  | Unop (Not, e1) ->
    let c = compile_bool e1 in
    fun s -> not (c s)
  | Unop (Neg, _) ->
    let c = compile_value e in
    fun s -> Value.as_bool (c s)
  | Binop (And, e1, e2) ->
    let c1 = compile_bool e1 and c2 = compile_bool e2 in
    fun s -> c1 s && c2 s
  | Binop (Or, e1, e2) ->
    let c1 = compile_bool e1 and c2 = compile_bool e2 in
    fun s -> c1 s || c2 s
  | Binop (Implies, e1, e2) ->
    let c1 = compile_bool e1 and c2 = compile_bool e2 in
    fun s -> (not (c1 s)) || c2 s
  | Binop ((Eq | Neq) as op, e1, e2) -> (
    let neg = op = Neq in
    match shape e1, shape e2 with
    | Sbool, Sbool ->
      let c1 = compile_bool e1 and c2 = compile_bool e2 in
      if neg then fun s -> c1 s <> c2 s else fun s -> c1 s = c2 s
    | Snum, Snum ->
      let c1 = compile_float e1 and c2 = compile_float e2 in
      if neg then fun s -> c1 s <> c2 s else fun s -> c1 s = c2 s
    | _ ->
      let c1 = compile_value e1 and c2 = compile_value e2 in
      if neg then fun s ->
        let v1 = c1 s in
        let v2 = c2 s in
        not (Value.equal v1 v2)
      else fun s ->
        let v1 = c1 s in
        let v2 = c2 s in
        Value.equal v1 v2)
  | Binop ((Lt | Le | Gt | Ge) as op, e1, e2) when is_operand e1 && is_operand e2 ->
    (* [compile_float] on each side, inlined *)
    let v1, x1, f1 = operand e1 and v2, x2, f2 = operand e2 in
    fun s ->
      let x = if v1 >= 0 then get_f s v1 else if f1 = f1 then f1 else Value.as_float x1 in
      let y = if v2 >= 0 then get_f s v2 else if f2 = f2 then f2 else Value.as_float x2 in
      let c = Float.compare x y in
      (match op with Lt -> c < 0 | Le -> c <= 0 | Gt -> c > 0 | _ -> c >= 0)
  | Binop ((Lt | Le | Gt | Ge) as op, e1, e2) ->
    let c1 = compile_float e1 and c2 = compile_float e2 in
    (* [Float.compare] matches [Value.compare_num]'s total order (it
       falls back to polymorphic compare on floats, incl. NaN). *)
    (match op with
    | Lt -> fun s ->
        let x = c1 s in
        let y = c2 s in
        Float.compare x y < 0
    | Le -> fun s ->
        let x = c1 s in
        let y = c2 s in
        Float.compare x y <= 0
    | Gt -> fun s ->
        let x = c1 s in
        let y = c2 s in
        Float.compare x y > 0
    | Ge -> fun s ->
        let x = c1 s in
        let y = c2 s in
        Float.compare x y >= 0
    | _ -> assert false)
  | Binop ((Add | Sub | Mul | Div | Mod | Min | Max), _, _) ->
    let c = compile_value e in
    fun s -> Value.as_bool (c s)
  | Ite (c, e1, e2) ->
    let cc = compile_bool c and c1 = compile_bool e1 and c2 = compile_bool e2 in
    fun s -> if cc s then c1 s else c2 s

and compile_float (e : Expr.t) : cfloat =
  match e with
  | Const (Value.Int n) ->
    let x = float_of_int n in
    fun _ -> x
  | Const (Value.Real x) -> fun _ -> x
  | Const v -> fun _ -> Value.as_float v
  | Var v -> fun s -> get_f s v
  | Loc _ ->
    let c = compile_bool e in
    fun s -> Value.as_float (vbool (c s))
  | Unop (Neg, e1) when definitely_real e1 ->
    let c = compile_float e1 in
    fun s -> -.(c s)
  | Unop (Neg, _) ->
    (* A possibly-[Int] operand: [Value.neg (Int 0)] is [+0.0] where the
       float negate would give [-0.0]. *)
    let c = compile_value e in
    fun s -> Value.as_float (c s)
  | Unop (Not, _)
  | Binop ((And | Or | Implies | Eq | Neq | Lt | Le | Gt | Ge), _, _) ->
    let c = compile_bool e in
    fun s -> Value.as_float (vbool (c s))
  | Binop (Add, e1, e2) ->
    let c1 = compile_float e1 and c2 = compile_float e2 in
    fun s ->
      let x = c1 s in
      let y = c2 s in
      x +. y
  | Binop (Sub, e1, e2) ->
    let c1 = compile_float e1 and c2 = compile_float e2 in
    fun s ->
      let x = c1 s in
      let y = c2 s in
      x -. y
  | Binop (Mul, e1, e2) when definitely_real e1 || definitely_real e2 ->
    let c1 = compile_float e1 and c2 = compile_float e2 in
    fun s ->
      let x = c1 s in
      let y = c2 s in
      x *. y
  | Binop (Mul, _, _) ->
    (* Two possibly-[Int] operands: [Int 0 * Int (-1)] is [+0.0] where
       the float product would give [-0.0]. *)
    let c = compile_value e in
    fun s -> Value.as_float (c s)
  | Binop (Div, e1, e2) when definitely_real e1 || definitely_real e2 ->
    let c1 = compile_float e1 and c2 = compile_float e2 in
    fun s ->
      let x = c1 s in
      let y = c2 s in
      if y = 0.0 then raise (Value.Type_error "division by zero") else x /. y
  | Binop ((Div | Mod), _, _) ->
    (* Two possibly-[Int] operands: integer division/modulo semantics. *)
    let c = compile_value e in
    fun s -> Value.as_float (c s)
  | Binop (Min, e1, e2) ->
    let c1 = compile_float e1 and c2 = compile_float e2 in
    fun s ->
      let x = c1 s in
      let y = c2 s in
      if Float.compare x y <= 0 then x else y
  | Binop (Max, e1, e2) ->
    let c1 = compile_float e1 and c2 = compile_float e2 in
    fun s ->
      let x = c1 s in
      let y = c2 s in
      if Float.compare x y >= 0 then x else y
  | Ite (c, e1, e2) ->
    let cc = compile_bool c and c1 = compile_float e1 and c2 = compile_float e2 in
    fun s -> if cc s then c1 s else c2 s

(* Staged [Linear.eval_sym] / [Linear.sat_set]: the delay-dependent
   symbolic evaluation with the AST dispatch done once. *)
and compile_sym (e : Expr.t) : cstate -> Linear.sval =
  match e with
  | Const v -> fun _ -> Linear.Disc v
  | Var v ->
    fun s ->
      let r = s.rates.(v) in
      if r = 0.0 then Linear.Disc (get_v s v)
      else Linear.Num { a = get_f s v; b = r }
  | Loc (p, l) -> fun s -> Linear.Disc (vbool (s.locs.(p) = l))
  | Unop (Neg, e1) ->
    let c = compile_sym e1 in
    fun s ->
      (match c s with
      | Linear.Disc v -> Linear.Disc (Value.neg v)
      | Linear.Num { a; b } -> Linear.Num { a = -.a; b = -.b })
  | Unop (Not, _) | Binop ((And | Or | Implies | Eq | Neq | Lt | Le | Gt | Ge), _, _)
    ->
    let c = compile_value e in
    fun s -> Linear.Disc (c s)
  | Binop (Add, e1, e2) -> compile_lift2 ( +. ) Value.add e1 e2
  | Binop (Sub, e1, e2) -> compile_lift2 ( -. ) Value.sub e1 e2
  | Binop (Mul, e1, e2) ->
    let c1 = compile_sym e1 and c2 = compile_sym e2 in
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
    let c1 = compile_sym e1 and c2 = compile_sym e2 in
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
    let c1 = compile_sym e1 and c2 = compile_sym e2 in
    fun s ->
      let s1 = c1 s in
      let s2 = c2 s in
      (match s1, s2 with
      | Linear.Disc v1, Linear.Disc v2 -> Linear.Disc (Value.modulo v1 v2)
      | _ -> raise (Linear.Nonlinear "mod of a delay-dependent term"))
  | Binop ((Min | Max) as op, e1, e2) ->
    let c1 = compile_sym e1 and c2 = compile_sym e2 in
    let f = if op = Min then Value.min_v else Value.max_v in
    fun s ->
      let s1 = c1 s in
      let s2 = c2 s in
      (match s1, s2 with
      | Linear.Disc v1, Linear.Disc v2 -> Linear.Disc (f v1 v2)
      | _ -> raise (Linear.Nonlinear "min/max of a delay-dependent term"))
  | Ite (c, e1, e2) ->
    let cc = compile_sat c and c1 = compile_sym e1 and c2 = compile_sym e2 in
    fun s ->
      let cset = cc s in
      if I.equal cset I.full then c1 s
      else if I.is_empty cset then c2 s
      else raise (Linear.Nonlinear "if-then-else condition depends on the delay")

and compile_lift2 fop vop e1 e2 =
  let c1 = compile_sym e1 and c2 = compile_sym e2 in
  fun s ->
    let s1 = c1 s in
    let s2 = c2 s in
    match s1, s2 with
    | Linear.Disc v1, Linear.Disc v2 -> Linear.Disc (vop v1 v2)
    | _ ->
      let l1 = Linear.promote s1 and l2 = Linear.promote s2 in
      Linear.Num { a = fop l1.Linear.a l2.Linear.a; b = fop l1.Linear.b l2.Linear.b }

and compile_sat (e : Expr.t) : csat =
  match e with
  | Const (Value.Bool true) -> fun _ -> I.full
  | Const (Value.Bool false) -> fun _ -> I.empty
  | Const v -> fun _ -> if Value.as_bool v then I.full else I.empty
  | Var _ | Loc _ ->
    let c = compile_bool e in
    fun s -> if c s then I.full else I.empty
  | Unop (Not, e1) ->
    let c = compile_sat e1 in
    fun s -> I.complement (c s)
  | Unop (Neg, _) ->
    fun _ -> raise (Value.Type_error "numeric expression used as a guard")
  | Binop (And, e1, e2) ->
    let c1 = compile_sat e1 and c2 = compile_sat e2 in
    fun s ->
      let s1 = c1 s in
      let s2 = c2 s in
      I.inter s1 s2
  | Binop (Or, e1, e2) ->
    let c1 = compile_sat e1 and c2 = compile_sat e2 in
    fun s ->
      let s1 = c1 s in
      let s2 = c2 s in
      I.union s1 s2
  | Binop (Implies, e1, e2) ->
    let c1 = compile_sat e1 and c2 = compile_sat e2 in
    fun s ->
      let s1 = c1 s in
      let s2 = c2 s in
      I.union (I.complement s1) s2
  | Binop ((Eq | Neq | Lt | Le | Gt | Ge) as op, e1, e2) ->
    let c1 = compile_sym e1 and c2 = compile_sym e2 in
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
    let cc = compile_sat c and c1 = compile_sat e1 and c2 = compile_sat e2 in
    fun s ->
      let cset = cc s in
      let s1 = c1 s in
      let s2 = c2 s in
      I.union (I.inter cset s1) (I.inter (I.complement cset) s2)

(* [compile_win e k] is [compile_sat e] writing its result into
   evaluator slot [k] (using the slots above [k] as scratch) instead of
   returning an [Interval_set.t]: guards and invariants over clocks and
   data then cost no allocation.  Returns the closure and the highest slot used.
   Comparisons whose operands are variables or constants, Boolean
   atoms, negation, conjunction and disjunction are evaluated in place;
   anything else goes through [compile_sat] and is stored as it comes. *)
let rec compile_win (e : Expr.t) k : (cstate -> unit) * int =
  match e with
  | Const (Value.Bool true) -> ((fun s -> w_set_full s.ev k), k)
  | Const (Value.Bool false) -> ((fun s -> w_set_empty s.ev k), k)
  | Const v ->
    ((fun s -> if Value.as_bool v then w_set_full s.ev k else w_set_empty s.ev k), k)
  | Var _ | Loc _ ->
    let c = compile_bool e in
    ((fun s -> if c s then w_set_full s.ev k else w_set_empty s.ev k), k)
  | Unop (Not, e1) ->
    let c1, m = compile_win e1 k in
    ( (fun s ->
        c1 s;
        w_complement s.ev k),
      m )
  | Binop ((And | Or | Implies) as op, e1, e2) ->
    let c1, m1 = compile_win e1 k in
    let c2, m2 = compile_win e2 (k + 1) in
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
  | Binop
      ( ((Eq | Neq | Lt | Le | Gt | Ge) as op),
        ((Var _ | Const _) as e1),
        ((Var _ | Const _) as e2) ) ->
    (* [compile_sym] on each side: a variable with a non-zero rate is
       [Num {a = value; b = rate}], anything else is [Disc value]. *)
    let v1, x1, f1 = operand e1 and v2, x2, f2 = operand e2 in
    ( (fun s ->
        let b1 = if v1 < 0 then 0.0 else s.rates.(v1) in
        let b2 = if v2 < 0 then 0.0 else s.rates.(v2) in
        if b1 = 0.0 && b2 = 0.0 then begin
          let x1 = if v1 < 0 then x1 else get_v s v1 in
          let x2 = if v2 < 0 then x2 else get_v s v2 in
          let holds =
            match op with
            | Eq -> Value.equal x1 x2
            | Neq -> not (Value.equal x1 x2)
            | Lt -> Value.compare_num x1 x2 < 0
            | Le -> Value.compare_num x1 x2 <= 0
            | Gt -> Value.compare_num x1 x2 > 0
            | Ge -> Value.compare_num x1 x2 >= 0
            | _ -> assert false
          in
          if holds then w_set_full s.ev k else w_set_empty s.ev k
        end
        else begin
          (* [Linear.promote]: a [Disc] side has slope +0 *)
          let a1 =
            if v1 >= 0 then get_f s v1 else if f1 = f1 then f1 else Value.as_float x1
          in
          let a2 =
            if v2 >= 0 then get_f s v2 else if f2 = f2 then f2 else Value.as_float x2
          in
          let b1 = if b1 = 0.0 then 0.0 else b1 and b2 = if b2 = 0.0 then 0.0 else b2 in
          w_solve_cmp s.ev k op (a1 -. a2) (b1 -. b2)
        end),
      k )
  | _ ->
    let c = compile_sat e in
    ((fun s -> w_of_set s.ev k (c s)), k)

(* ------------------------------------------------------------------ *)
(* Compiled network tables                                            *)

type ctrans = {
  tr_id : int;  (* index into [Automaton.transitions], for parity with the interpreter *)
  t_dst : int;
  t_win : cstate -> unit;  (* the guard's delay window, into slot [ev_root] *)
  t_rate : float;  (* 0 for guarded transitions *)
  t_updates : (int * cvalue) array;
  t_marks : int array;  (* flows its updates and location switch can change *)
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
  restart_procs : int array;  (* processes with a [Restart] policy *)
  f_target : int array;
  f_expr : cvalue array;
  f_deps : int array array;  (* per flow, the later flows reading its target *)
  time_marks : int array;  (* flows a delay can change *)
  timed_vars : int array;  (* variables that can have a non-zero rate *)
  inits : Value.t array;
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
  let max_slot = ref ev_root in
  let win e =
    let c, m = compile_win e ev_root in
    max_slot := max !max_slot m;
    c
  in
  let no_window : cstate -> unit = fun s -> w_set_full s.ev ev_root in
  let no_candidates : ctrans array array = Array.make (max n_events 1) [||] in
  let cprocs =
    Array.mapi
      (fun p (proc : Automaton.t) ->
        let meta = net.meta.(p) in
        let p_trans =
          Array.mapi
            (fun i (tr : Automaton.transition) ->
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
                   t_updates =
                     Array.of_list
                       (List.map
                          (fun (v, e) -> (v, compile_value e))
                          tr.Automaton.updates);
                   t_marks =
                     int_set
                       (writes (List.map fst tr.Automaton.updates) @ proc_flows.(p));
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
                inv_bool = compile_bool loc.Automaton.invariant;
                l_derivs = Array.of_list loc.Automaton.derivs;
                tau;
                by_event;
                markov;
              })
            proc.locations
        in
        {
          active_trivial = meta.Network.active_when = Expr.true_;
          active = compile_bool meta.Network.active_when;
          p_initial = proc.Automaton.initial_loc;
          p_trans;
          p_locs;
          p_owned = Array.of_list meta.Network.owned_vars;
          p_marks = int_set (writes meta.Network.owned_vars @ proc_flows.(p));
        })
      net.procs
  in
  {
    net;
    cprocs;
    sync_parts = Array.map Array.of_list net.participants;
    restart_procs =
      Array.of_list
        (List.filter
           (fun p -> net.meta.(p).Network.reactivation = Network.Restart)
           (List.init n_procs Fun.id));
    f_target = Array.map (fun (f : Network.flow) -> f.target) flows;
    f_expr = Array.map (fun (f : Network.flow) -> compile_value f.expr) flows;
    f_deps;
    time_marks;
    timed_vars;
    inits = Array.map (fun (v : Network.var_info) -> v.Network.init) net.vars;
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
  make_cstate ~n_procs:c.n_procs ~n_vars:c.n_vars ~n_flows:c.n_flows
    ~n_markov:c.n_markov ~n_slots:c.n_slots

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

(* Re-evaluate the dirty flows in dependency order; each one marks the
   later flows that read its target.  A flow that raises stays dirty. *)
let apply_flows c s =
  let dirty = s.dirty in
  let f = ref 0 in
  while s.n_dirty > 0 && !f < c.n_flows do
    let i = !f in
    if Bytes.get dirty i <> '\000' then begin
      let x = (Array.unsafe_get c.f_expr i) s in
      set_v s (Array.unsafe_get c.f_target i) x;
      Bytes.set dirty i '\000';
      s.n_dirty <- s.n_dirty - 1;
      mark s (Array.unsafe_get c.f_deps i)
    end;
    incr f
  done

let reset c s =
  for p = 0 to c.n_procs - 1 do
    s.locs.(p) <- c.cprocs.(p).p_initial
  done;
  Array.blit c.inits 0 s.vals 0 c.n_vars;
  Bytes.fill s.ftag 0 c.n_vars '\000';
  s.time.(0) <- 0.0;
  mark_all c s;
  apply_flows c s

(* Mirrors [Moves_oracle.rate_array]: clocks of active owners tick at
   1, then location-specific derivatives of active processes
   override. *)
let set_rates c s =
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

(* Requires [s.rates] to hold the rate vector of the current state
   (callers refresh it once per step with [set_rates]).  Only the
   [timed_vars] can have a non-zero rate. *)
let advance c s d =
  if d <> 0.0 then begin
    let vs = c.timed_vars in
    for i = 0 to Array.length vs - 1 do
      let v = Array.unsafe_get vs i in
      let r = s.rates.(v) in
      if r <> 0.0 then set_f s v (get_f s v +. (r *. d))
    done;
    s.time.(0) <- s.time.(0) +. d;
    mark s c.time_marks
  end

let apply_updates s (ups : (int * cvalue) array) =
  for i = 0 to Array.length ups - 1 do
    let v, ce = ups.(i) in
    set_v s v (ce s)
  done

let restart_proc c s p =
  let cp = c.cprocs.(p) in
  s.locs.(p) <- cp.p_initial;
  let owned = cp.p_owned in
  for i = 0 to Array.length owned - 1 do
    let v = owned.(i) in
    set_v s v c.inits.(v)
  done;
  mark s cp.p_marks

(* Trial execution: copy the unboxed arrays into the double buffer, run
   on it with [vals] writes journaled, then flip back and undo the
   journal.  Depth-1 only (no nesting); [s.rates] is deliberately
   shared, it belongs to the pre-trial state. *)
let begin_trial c s =
  let l = s.locs and sl = s.spare_locs in
  for p = 0 to c.n_procs - 1 do
    Array.unsafe_set sl p (Array.unsafe_get l p)
  done;
  Array.blit s.fval 0 s.spare_fval 0 c.n_vars;
  Bytes.blit s.ftag 0 s.spare_ftag 0 c.n_vars;
  Bytes.blit s.dirty 0 s.spare_dirty 0 c.n_flows;
  s.saved_time.(0) <- s.time.(0);
  s.saved_n_dirty <- s.n_dirty;
  let f = s.fval and t = s.ftag and d = s.dirty in
  s.locs <- sl;
  s.fval <- s.spare_fval;
  s.ftag <- s.spare_ftag;
  s.dirty <- s.spare_dirty;
  s.spare_locs <- l;
  s.spare_fval <- f;
  s.spare_ftag <- t;
  s.spare_dirty <- d;
  s.jlen <- 0

let end_trial s =
  let l = s.locs and f = s.fval and t = s.ftag and d = s.dirty in
  s.locs <- s.spare_locs;
  s.fval <- s.spare_fval;
  s.ftag <- s.spare_ftag;
  s.dirty <- s.spare_dirty;
  s.spare_locs <- l;
  s.spare_fval <- f;
  s.spare_ftag <- t;
  s.spare_dirty <- d;
  s.time.(0) <- s.saved_time.(0);
  s.n_dirty <- s.saved_n_dirty;
  for k = s.jlen - 1 downto 0 do
    s.vals.(Array.unsafe_get s.jvar k) <- Array.unsafe_get s.jold k
  done;
  s.jlen <- -1

let eval_bool_after c s ~cap (f : cbool) =
  begin_trial c s;
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
  w_set_full ev 0;
  for p = 0 to c.n_procs - 1 do
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

(* Every candidate of every active participant on event [e] (guards are
   evaluated for all of them, as [Moves_oracle.discrete] does), then every
   combination in the interpreter's order: the first participant's
   choice varies slowest. *)
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
  if na > 0 then begin
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
    for p = 0 to c.n_procs - 1 do
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
  for p = 0 to c.n_procs - 1 do
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
  for p = 0 to c.n_procs - 1 do
    let cp = c.cprocs.(p) in
    if !ok && (cp.active_trivial || cp.active s) then begin
      let cl = cp.p_locs.(s.locs.(p)) in
      if (not cl.inv_trivial) && not (cl.inv_bool s) then ok := false
    end
  done;
  !ok

(* Mirrors [Moves_oracle.apply] for the move whose participants are
   [procs.(off) .. procs.(off + len - 1)] with transitions [trs]:
   advance, updates (participant order), location switches, flows,
   reactivation restarts, flows again.  Only [Restart] processes can be
   restarted, so only their activity is compared across the move. *)
let fire c s delay (procs : int array) (trs : int array) off len =
  advance c s delay;
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
    s.locs.(p) <- ct.t_dst;
    mark s ct.t_marks
  done;
  apply_flows c s;
  for k = 0 to Array.length rp - 1 do
    let p = rp.(k) in
    if Bytes.get s.was_active k = '\000' && proc_active c s p then restart_proc c s p
  done;
  apply_flows c s

let apply_move c s ~delay i = fire c s delay s.pt_proc s.pt_tr s.mv_off.(i) s.mv_len.(i)

let apply_local c s ~delay p tr =
  s.ap_proc.(0) <- p;
  s.ap_tr.(0) <- tr;
  fire c s delay s.ap_proc s.ap_tr 0 1

let apply c s ?(delay = 0.0) (move : Moves.move) =
  match move with
  | Moves.Local { proc; tr } -> apply_local c s ~delay proc tr
  | Moves.Sync { parts; _ } ->
    (* one transition per participating process *)
    List.iteri
      (fun k (p, ti) ->
        s.ap_proc.(k) <- p;
        s.ap_tr.(k) <- ti)
      parts;
    fire c s delay s.ap_proc s.ap_tr 0 (List.length parts)

let enabled_after c s d =
  let n = ref 0 in
  for i = 0 to s.n_moves - 1 do
    if w_mem d s.mw i then begin
      begin_trial c s;
      match
        apply_move c s ~delay:d i;
        invariants_hold c s
      with
      | ok ->
        end_trial s;
        if ok then begin
          s.enabled.(!n) <- i;
          incr n
        end
      | exception e ->
        end_trial s;
        raise e
    end
  done;
  !n

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
  f_bool : cbool;
  f_win : cstate -> unit;  (* [compile_sat] of [f_expr], into slot [f_slot] *)
  f_top : int;  (* the highest slot [f_win] uses *)
}

let compile_formula _c e =
  let f_win, f_top = compile_win e f_slot in
  { f_expr = e; f_trivial = e = Expr.true_; f_bool = compile_bool e; f_win; f_top }

(* The formula's delay set within [0, cap] (slot 1) into slot [f_slot]:
   exact for linear expressions; a non-linear one is decided at the
   endpoint [cap] alone, on the trial buffer. *)
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
    vals = Array.init c.n_vars (fun v -> get_v s v);
    time = s.time.(0);
  }

let of_state c s (st : State.t) =
  Array.blit st.State.locs 0 s.locs 0 c.n_procs;
  Array.blit st.State.vals 0 s.vals 0 c.n_vars;
  Bytes.fill s.ftag 0 c.n_vars '\000';
  s.time.(0) <- st.State.time;
  mark_all c s

let dirty_flows c s =
  List.filter (fun f -> Bytes.get s.dirty f <> '\000') (List.init c.n_flows Fun.id)

(* For tests: [compile_sat] through the in-place window evaluator. *)
let compile_window e =
  let c, _ = compile_win e 0 in
  fun s ->
    c s;
    w_to_set s.ev 0
