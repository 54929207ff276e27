(* The 64-bit state lives unboxed in an 8-byte cell: a mutable [int64]
   field would box a fresh state on every draw. *)
type t = Bytes.t

let golden_gamma = 0x9E3779B97F4A7C15L

(* SplitMix64 finalizer (Steele, Lea & Flood 2014). *)
let[@inline] mix z =
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 27)) 0x94D049BB133111EBL in
  Int64.logxor z (Int64.shift_right_logical z 31)

let create seed =
  let t = Bytes.create 8 in
  Bytes.set_int64_ne t 0 (mix (Int64.add seed golden_gamma));
  t

let[@inline] bits64 t =
  let z = Int64.add (Bytes.get_int64_ne t 0) golden_gamma in
  Bytes.set_int64_ne t 0 z;
  mix z

let for_path ~seed ~path =
  (* Decorrelate the per-path streams by hashing seed and index together. *)
  let h = mix (Int64.logxor (mix seed) (Int64.of_int (path + 1))) in
  create h

let for_path_level ~seed ~level ~path =
  if level < 0 then invalid_arg "Rng.for_path_level: level must be >= 0";
  if level = 0 then for_path ~seed ~path
  else
    (* Fold the level into the derivation key by re-seeding: the stream
       depends on (seed, level, path) alone, so multilevel campaigns stay
       bit-identical under any scheduling, and level 0 is byte-for-byte
       the classic single-level stream. *)
    let lseed =
      mix (Int64.logxor seed (Int64.mul (Int64.of_int level) golden_gamma))
    in
    for_path ~seed:lseed ~path

let split t = create (bits64 t)

let[@inline] float t =
  (* 53 random bits into [0,1). *)
  let x = Int64.shift_right_logical (bits64 t) 11 in
  Int64.to_float x *. (1.0 /. 9007199254740992.0)

(* The draw stays unboxed: a float returned across a module boundary
   is boxed unless the caller can inline the callee. *)
let float_into t cell i = cell.(i) <- float t

let uniform t ~lo ~hi = lo +. (float t *. (hi -. lo))

let below t x = float t *. x

let int t n =
  if n <= 0 then invalid_arg "Rng.int: bound must be positive";
  (* Rejection-free modulo is fine for the small ranges we use.  Keep 62
     bits so the value stays non-negative as a 63-bit OCaml int. *)
  let x = Int64.to_int (Int64.shift_right_logical (bits64 t) 2) in
  x mod n

let bool t = Int64.logand (bits64 t) 1L = 1L

let copy = Bytes.copy
