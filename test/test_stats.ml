(* Tests for the RNG, distributions and statistical generators. *)

module Rng = Slimsim_stats.Rng
module Dist = Slimsim_stats.Dist
module Bound = Slimsim_stats.Bound
module Estimator = Slimsim_stats.Estimator
module Generator = Slimsim_stats.Generator

let test_rng_determinism () =
  let r1 = Rng.create 42L and r2 = Rng.create 42L in
  for _ = 1 to 100 do
    Alcotest.(check int64) "same stream" (Rng.bits64 r1) (Rng.bits64 r2)
  done;
  let r3 = Rng.create 43L in
  Alcotest.(check bool) "different seeds differ" true
    (Rng.bits64 (Rng.create 42L) <> Rng.bits64 r3)

let test_rng_per_path_streams () =
  (* per-path streams must not depend on draw order *)
  let a = Rng.for_path ~seed:7L ~path:3 in
  let _ = Rng.for_path ~seed:7L ~path:4 in
  let b = Rng.for_path ~seed:7L ~path:3 in
  Alcotest.(check int64) "path stream is stable" (Rng.bits64 a) (Rng.bits64 b)

(* Golden values: the first draws of fixed streams, as the generator
   produced them when its state was a boxed [int64].  Any change of
   representation must keep every stream bit-identical. *)
let test_rng_golden () =
  let check name r expected =
    List.iteri
      (fun i x -> Alcotest.(check int64) (Printf.sprintf "%s, draw %d" name i) x (Rng.bits64 r))
      expected
  in
  check "create 42" (Rng.create 42L)
    [ 0x57e1faba65107204L; 0xf4abd143feb24055L; 0x7c816738c12903b2L;
      0x113e5dec6f8fd8a8L; 0xad4a599062fd1739L; 0x11485b98a7ea20b7L;
      0x32028f50341ebd74L; 0xbc16a3d4cc48678eL ];
  check "for_path 7/3" (Rng.for_path ~seed:7L ~path:3)
    [ 0x28b74aa5a34ad600L; 0xdc0f21342c6967bL; 0xc6eb361b24322bdeL;
      0x82287d0885d1ca95L; 0x9cbc0c75add8a30fL; 0x84519206c98d6e3cL;
      0x9248452a28908812L; 0x858a79d6d55b5662L ];
  check "for_path_level 7/2/3" (Rng.for_path_level ~seed:7L ~level:2 ~path:3)
    [ 0xc2f991e35305c655L; 0x5e30d85ad6412a7dL; 0x56441e31ffa17c45L;
      0x1d2be6baea367102L; 0x5a4b42a469291387L; 0xa999b0b5de4ab77cL;
      0xcf662e40f4413313L; 0xb126aad46cba0a35L ];
  let r = Rng.create 42L in
  List.iter
    (fun x -> Alcotest.(check (float 0.0)) "float draw" x (Rng.float r))
    [ 0x1.5f87eae99441cp-2; 0x1.e957a287fd648p-1; 0x1.f2059ce304a4p-2;
      0x1.13e5dec6f8fd8p-4 ];
  List.iter (fun k -> Alcotest.(check int) "int draw" k (Rng.int r 1000)) [ 470; 405; 893; 451 ];
  Alcotest.(check bool) "bool draw" true (Rng.bool r)

let test_rng_float_range () =
  let r = Rng.create 5L in
  for _ = 1 to 10_000 do
    let x = Rng.float r in
    Alcotest.(check bool) "in [0,1)" true (x >= 0.0 && x < 1.0)
  done

let test_rng_int_range () =
  let r = Rng.create 11L in
  let seen = Array.make 7 0 in
  for _ = 1 to 7_000 do
    let k = Rng.int r 7 in
    Alcotest.(check bool) "in range" true (k >= 0 && k < 7);
    seen.(k) <- seen.(k) + 1
  done;
  Array.iteri
    (fun i c ->
      Alcotest.(check bool) (Printf.sprintf "bucket %d populated" i) true (c > 700))
    seen

let test_rng_uniformity () =
  let r = Rng.create 13L in
  let n = 100_000 in
  let sum = ref 0.0 in
  for _ = 1 to n do
    sum := !sum +. Rng.float r
  done;
  let mean = !sum /. float_of_int n in
  Alcotest.(check bool) "mean near 1/2" true (Float.abs (mean -. 0.5) < 0.01)

let test_exponential_mean () =
  let r = Rng.create 17L in
  let rate = 2.5 in
  let n = 100_000 in
  let sum = ref 0.0 in
  for _ = 1 to n do
    let x = Dist.exponential r ~rate in
    Alcotest.(check bool) "positive" true (x >= 0.0);
    sum := !sum +. x
  done;
  let mean = !sum /. float_of_int n in
  Alcotest.(check bool) "mean near 1/rate" true
    (Float.abs (mean -. (1.0 /. rate)) < 0.01)

let test_categorical () =
  let r = Rng.create 19L in
  let weights = [| 1.0; 3.0; 6.0 |] in
  let counts = Array.make 3 0 in
  let n = 50_000 in
  for _ = 1 to n do
    let k = Dist.categorical r ~weights in
    counts.(k) <- counts.(k) + 1
  done;
  let frac k = float_of_int counts.(k) /. float_of_int n in
  Alcotest.(check bool) "weight 1/10" true (Float.abs (frac 0 -. 0.1) < 0.01);
  Alcotest.(check bool) "weight 3/10" true (Float.abs (frac 1 -. 0.3) < 0.015);
  Alcotest.(check bool) "weight 6/10" true (Float.abs (frac 2 -. 0.6) < 0.015);
  Alcotest.check_raises "empty weights rejected"
    (Invalid_argument "Dist.categorical: total weight must be positive")
    (fun () -> ignore (Dist.categorical r ~weights:[||]))

let test_exponential_race () =
  let r = Rng.create 23L in
  (* the race winner must follow rate proportions; the time Exp(sum) *)
  let rates = [| 1.0; 4.0 |] in
  let n = 50_000 in
  let wins = Array.make 2 0 in
  let sum_t = ref 0.0 in
  for _ = 1 to n do
    match Dist.exponential_race r ~rates with
    | Some (i, t) ->
      wins.(i) <- wins.(i) + 1;
      sum_t := !sum_t +. t
    | None -> Alcotest.fail "race with positive rates must have a winner"
  done;
  Alcotest.(check bool) "winner 1 ~ 80%" true
    (Float.abs ((float_of_int wins.(1) /. float_of_int n) -. 0.8) < 0.01);
  Alcotest.(check bool) "holding time ~ 1/5" true
    (Float.abs ((!sum_t /. float_of_int n) -. 0.2) < 0.005);
  Alcotest.(check bool) "no winner without rates" true
    (Dist.exponential_race r ~rates:[| 0.0; 0.0 |] = None)

let test_negative_params_rejected () =
  (* Regression: a negative weight among positive ones used to slip
     through (only the total was checked), making the cumulative scan
     non-monotone and silently biasing the draw. *)
  let r = Rng.create 29L in
  Alcotest.check_raises "categorical negative weight"
    (Invalid_argument "Dist.categorical: negative weight") (fun () ->
      ignore (Dist.categorical r ~weights:[| 1.0; -0.5; 2.0 |]));
  Alcotest.check_raises "race negative rate"
    (Invalid_argument "Dist.exponential_race: negative rate") (fun () ->
      ignore (Dist.exponential_race r ~rates:[| 0.5; -1.0 |]));
  Alcotest.check_raises "race_n negative rate"
    (Invalid_argument "Dist.exponential_race_n: negative rate") (fun () ->
      ignore
        (Dist.exponential_race_n r ~rates:[| 0.5; -1.0; 3.0 |] ~n:2
           ~delay:[| 0.0 |]));
  (* entries beyond [n] are outside the race: neither summed nor checked *)
  Alcotest.(check bool) "rates beyond n ignored" true
    (Dist.exponential_race_n r ~rates:[| 0.5; 1.0; -3.0 |] ~n:2 ~delay:[| 0.0 |]
     <> -1)

let prop cnt name gen f =
  QCheck_alcotest.to_alcotest (QCheck2.Test.make ~count:cnt ~name gen f)

let gen_weight_case =
  QCheck2.Gen.(
    pair (int_range 1 0x3FFFFFFF)
      (list_size (int_range 2 5) (oneofl [ 0.5; 1.0; 2.0; 4.0; 8.0 ])))

let prop_categorical_frequencies (seed, ws) =
  (* empirical frequencies track the normalized weights (5+ sigma slack
     at 20_000 draws, so the property is stable under any qcheck seed) *)
  let weights = Array.of_list ws in
  let r = Rng.create (Int64.of_int seed) in
  let n = 20_000 in
  let counts = Array.make (Array.length weights) 0 in
  for _ = 1 to n do
    let k = Dist.categorical r ~weights in
    counts.(k) <- counts.(k) + 1
  done;
  let total = Array.fold_left ( +. ) 0.0 weights in
  let ok = ref true in
  Array.iteri
    (fun i w ->
      let frac = float_of_int counts.(i) /. float_of_int n in
      if Float.abs (frac -. (w /. total)) >= 0.025 then ok := false)
    weights;
  !ok

(* [exponential_race_n] on a buffer's first [n] entries draws exactly
   what [exponential_race] draws on those entries: the same winner, the
   same holding time, the same stream position afterwards. *)
let gen_race_case =
  QCheck2.Gen.(
    triple (int_range 1 0x3FFFFFFF)
      (list_size (int_range 1 6) (oneofl [ 0.0; 0.25; 1.0; 3.5 ]))
      (int_range 0 3))

let prop_race_n_is_race (seed, rs, spare) =
  let rates = Array.of_list rs in
  let n = Array.length rates in
  let buf = Array.append rates (Array.make spare 7.0) in
  let a = Rng.create (Int64.of_int seed) and b = Rng.create (Int64.of_int seed) in
  let delay = [| nan |] in
  let ok = ref true in
  for _ = 1 to 20 do
    let i = Dist.exponential_race_n b ~rates:buf ~n ~delay in
    (match Dist.exponential_race a ~rates with
    | Some (j, t) ->
      if i <> j || Int64.bits_of_float t <> Int64.bits_of_float delay.(0) then ok := false
    | None -> if i <> -1 then ok := false);
    if Rng.bits64 a <> Rng.bits64 b then ok := false
  done;
  !ok

let test_uniform_choice () =
  Alcotest.check_raises "empty list rejected"
    (Invalid_argument "Dist.uniform_choice: empty list") (fun () ->
      ignore (Dist.uniform_choice (Rng.create 1L) []));
  (* a singleton consumes no randomness *)
  let r = Rng.create 31L in
  Alcotest.(check int) "singleton" 7 (Dist.uniform_choice r [ 7 ]);
  Alcotest.(check int64) "singleton consumes nothing"
    (Rng.bits64 (Rng.create 31L))
    (Rng.bits64 r);
  (* n >= 2: the indexed walk must match the old [List.nth _ (Rng.int _ n)]
     draw-for-draw — same element, same stream position afterwards — so
     verdict streams are bit-identical across the optimisation *)
  for n = 2 to 8 do
    let xs = List.init n (fun i -> i * 10) in
    let seed = Int64.of_int (100 + n) in
    let a = Rng.create seed and b = Rng.create seed in
    let chosen = Dist.uniform_choice a xs in
    let k = Rng.int b n in
    Alcotest.(check int)
      (Printf.sprintf "n=%d: element of the single draw" n)
      (List.nth xs k) chosen;
    Alcotest.(check int64)
      (Printf.sprintf "n=%d: same stream position" n)
      (Rng.bits64 b) (Rng.bits64 a)
  done

let test_chernoff_bound () =
  (* paper formula: N = 4 ln(2/delta) / eps^2 *)
  let n = Bound.chernoff_samples ~delta:0.05 ~eps:0.01 in
  Alcotest.(check int) "paper CH count" 147556 n;
  (* quadratic growth in 1/eps *)
  let n2 = Bound.chernoff_samples ~delta:0.05 ~eps:0.005 in
  Alcotest.(check bool) "quadratic in 1/eps" true
    (Float.abs ((float_of_int n2 /. float_of_int n) -. 4.0) < 0.01);
  (* monotone in delta *)
  Alcotest.(check bool) "monotone in delta" true
    (Bound.chernoff_samples ~delta:0.01 ~eps:0.01
    > Bound.chernoff_samples ~delta:0.1 ~eps:0.01);
  Alcotest.(check bool) "hoeffding tighter than paper form" true
    (Bound.hoeffding_samples ~delta:0.05 ~eps:0.01 < n);
  Alcotest.check_raises "delta validated"
    (Invalid_argument "Bound: delta must lie in (0,1)") (fun () ->
      ignore (Bound.chernoff_samples ~delta:1.5 ~eps:0.1))

let test_hoeffding_inverse () =
  let delta = 0.05 in
  let n = Bound.hoeffding_samples ~delta ~eps:0.01 in
  let eps' = Bound.hoeffding_eps ~delta ~n in
  Alcotest.(check bool) "eps from n consistent" true (eps' <= 0.01 +. 1e-6);
  let delta' = Bound.hoeffding_delta ~eps:0.01 ~n in
  Alcotest.(check bool) "delta from n consistent" true (delta' <= delta +. 1e-9)

let test_normal_quantile () =
  let cases =
    [ (0.5, 0.0); (0.975, 1.959964); (0.995, 2.575829); (0.025, -1.959964) ]
  in
  List.iter
    (fun (p, z) ->
      Alcotest.(check (float 1e-4))
        (Printf.sprintf "quantile %.3f" p)
        z
        (Bound.normal_quantile p))
    cases

let test_estimator () =
  let e = Estimator.create () in
  List.iter (Estimator.add e) [ true; true; false; true ];
  Alcotest.(check int) "trials" 4 (Estimator.trials e);
  Alcotest.(check int) "successes" 3 (Estimator.successes e);
  Alcotest.(check (float 1e-9)) "mean" 0.75 (Estimator.mean e);
  let lo, hi = Estimator.confidence_interval e ~delta:0.05 in
  Alcotest.(check bool) "interval clipped to [0,1]" true
    (lo >= 0.0 && hi <= 1.0 && lo <= 0.75 && hi >= 0.75);
  let e2 = Estimator.create () in
  Estimator.add e2 false;
  let m = Estimator.merge e e2 in
  Alcotest.(check int) "merged trials" 5 (Estimator.trials m);
  Alcotest.(check int) "merged successes" 3 (Estimator.successes m)

let test_estimator_coverage () =
  (* Hoeffding interval at 1-delta must cover the true mean in well over
     1-delta of experiments. *)
  let rng = Rng.create 31L in
  let p = 0.3 and delta = 0.1 in
  let experiments = 400 and samples = 200 in
  let covered = ref 0 in
  for _ = 1 to experiments do
    let e = Estimator.create () in
    for _ = 1 to samples do
      Estimator.add e (Dist.bernoulli rng ~p)
    done;
    let lo, hi = Estimator.confidence_interval e ~delta in
    if lo <= p && p <= hi then incr covered
  done;
  Alcotest.(check bool) "coverage above 1 - delta" true
    (float_of_int !covered /. float_of_int experiments >= 1.0 -. delta)

let test_generators_fixed () =
  let gen = Generator.create Generator.Chernoff ~delta:0.05 ~eps:0.1 in
  let planned = Option.get (Generator.planned_samples gen) in
  Alcotest.(check int) "planned count" 1476 planned;
  for _ = 1 to planned - 1 do
    Generator.feed gen true
  done;
  Alcotest.(check bool) "needs one more" true (Generator.needs_more gen);
  Generator.feed gen false;
  Alcotest.(check bool) "satisfied at N" false (Generator.needs_more gen);
  Alcotest.(check bool) "gauss plans fewer than chernoff" true
    (Option.get
       (Generator.planned_samples (Generator.create Generator.Gauss ~delta:0.05 ~eps:0.1))
    < planned)

let test_chow_robbins () =
  let gen = Generator.create Generator.Chow_robbins ~delta:0.05 ~eps:0.05 in
  Alcotest.(check bool) "sequential has no plan" true
    (Generator.planned_samples gen = None);
  let rng = Rng.create 37L in
  let n = ref 0 in
  while Generator.needs_more gen && !n < 100_000 do
    Generator.feed gen (Dist.bernoulli rng ~p:0.2);
    incr n
  done;
  Alcotest.(check bool) "stopped before the cap" true (!n < 100_000);
  (* CLT count for p(1-p)=0.16 is ~ z^2 * 0.16 / eps^2 ~ 246 *)
  Alcotest.(check bool) "plausible stopping time" true (!n > 100 && !n < 2000);
  let m = Estimator.mean (Generator.estimator gen) in
  Alcotest.(check bool) "estimate near truth" true (Float.abs (m -. 0.2) < 0.08)

let test_generator_names () =
  List.iter
    (fun k ->
      match Generator.kind_of_string (Generator.kind_to_string k) with
      | Ok k' -> Alcotest.(check bool) "name roundtrip" true (k = k')
      | Error e -> Alcotest.fail e)
    Generator.all_kinds;
  Alcotest.(check bool) "all kinds listed" true
    (List.mem Generator.Mlmc Generator.all_kinds);
  match Generator.kind_of_string "bogus" with
  | Ok _ -> Alcotest.fail "unknown generator must be rejected"
  | Error msg ->
    (* the error must enumerate every valid name, so a user can fix a
       typo without reading the source *)
    List.iter
      (fun k ->
        let name = Generator.kind_to_string k in
        Alcotest.(check bool)
          (Printf.sprintf "error mentions %S" name)
          true
          (let re = Str.regexp_string name in
           try
             ignore (Str.search_forward re msg 0);
             true
           with Not_found -> false))
      Generator.all_kinds

let test_welford () =
  let w = Slimsim_stats.Welford.create () in
  List.iter (Slimsim_stats.Welford.add w) [ 2.0; 4.0; 4.0; 4.0; 5.0; 5.0; 7.0; 9.0 ];
  Alcotest.(check int) "count" 8 (Slimsim_stats.Welford.count w);
  Alcotest.(check (float 1e-9)) "mean" 5.0 (Slimsim_stats.Welford.mean w);
  Alcotest.(check (float 1e-9)) "sample variance" (32.0 /. 7.0)
    (Slimsim_stats.Welford.variance w);
  let lo, hi = Slimsim_stats.Welford.confidence_interval w ~delta:0.05 in
  Alcotest.(check bool) "interval brackets the mean" true (lo < 5.0 && 5.0 < hi)

let test_welford_constant () =
  let w = Slimsim_stats.Welford.create () in
  for _ = 1 to 100 do
    Slimsim_stats.Welford.add w 3.25
  done;
  Alcotest.(check (float 1e-12)) "zero variance" 0.0 (Slimsim_stats.Welford.variance w);
  let lo, hi = Slimsim_stats.Welford.confidence_interval w ~delta:0.05 in
  Alcotest.(check (float 1e-12)) "degenerate interval" 0.0 (hi -. lo)

let test_estimator_serialization () =
  let e = Estimator.create () in
  for i = 1 to 57 do
    Estimator.add e (i mod 3 = 0)
  done;
  (match Estimator.of_string (Estimator.to_string e) with
  | Ok e' ->
    Alcotest.(check int) "trials" (Estimator.trials e) (Estimator.trials e');
    Alcotest.(check int) "successes" (Estimator.successes e)
      (Estimator.successes e');
    Alcotest.(check (float 0.0)) "mean is bit-identical" (Estimator.mean e)
      (Estimator.mean e')
  | Error msg -> Alcotest.failf "of_string failed: %s" msg);
  (match Estimator.of_string "garbage" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "garbage must not parse");
  match Estimator.of_string "3 7" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "successes > trials must not parse"

let test_welford_serialization () =
  let w = Slimsim_stats.Welford.create () in
  (* values with no short decimal representation: the hex-float format
     must still round-trip them exactly *)
  for i = 1 to 100 do
    Slimsim_stats.Welford.add w (1.0 /. float_of_int i)
  done;
  (match Slimsim_stats.Welford.of_string (Slimsim_stats.Welford.to_string w) with
  | Ok w' ->
    let n, mean, m2 = Slimsim_stats.Welford.state w in
    let n', mean', m2' = Slimsim_stats.Welford.state w' in
    Alcotest.(check int) "count" n n';
    Alcotest.(check (float 0.0)) "mean is bit-identical" mean mean';
    Alcotest.(check (float 0.0)) "m2 is bit-identical" m2 m2'
  | Error msg -> Alcotest.failf "of_string failed: %s" msg);
  match Slimsim_stats.Welford.of_string "not a welford" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "garbage must not parse"

let test_generator_restore () =
  (* restoring a generator's counters must reproduce the stopping
     decision and the estimate of a generator that was fed live *)
  List.iter
    (fun kind ->
      let live = Generator.create kind ~delta:0.05 ~eps:0.05 in
      let n = ref 0 in
      while Generator.needs_more live && !n < 200 do
        incr n;
        Generator.feed live (!n mod 4 = 0)
      done;
      let est = Generator.estimator live in
      let restored = Generator.create kind ~delta:0.05 ~eps:0.05 in
      Generator.restore restored ~trials:(Estimator.trials est)
        ~successes:(Estimator.successes est);
      Alcotest.(check bool)
        (Generator.kind_to_string kind ^ ": same stopping decision")
        (Generator.needs_more live)
        (Generator.needs_more restored);
      Alcotest.(check (float 0.0))
        (Generator.kind_to_string kind ^ ": same estimate")
        (Estimator.mean est)
        (Estimator.mean (Generator.estimator restored)))
    [ Generator.Chernoff; Generator.Chow_robbins ]

(* --- the multilevel accumulator --- *)

module Mlmc = Slimsim_stats.Mlmc
module Welford = Slimsim_stats.Welford

let test_rng_path_levels () =
  (* level 0 is the classic per-path stream, exactly: a one-level MLMC
     run must replay the single-level generator bit for bit *)
  let a = Rng.for_path ~seed:7L ~path:3 in
  let b = Rng.for_path_level ~seed:7L ~level:0 ~path:3 in
  for _ = 1 to 100 do
    Alcotest.(check int64) "level 0 is for_path" (Rng.bits64 a) (Rng.bits64 b)
  done;
  (* distinct levels decorrelate even at the same path index *)
  let l1 = Rng.for_path_level ~seed:7L ~level:1 ~path:3 in
  let l2 = Rng.for_path_level ~seed:7L ~level:2 ~path:3 in
  let l0 = Rng.for_path_level ~seed:7L ~level:0 ~path:3 in
  Alcotest.(check bool) "levels differ" true
    (Rng.bits64 l1 <> Rng.bits64 l2 && Rng.bits64 l1 <> Rng.bits64 l0);
  (* stable: re-deriving the stream restarts it *)
  let c = Rng.for_path_level ~seed:7L ~level:1 ~path:3 in
  let d = Rng.for_path_level ~seed:7L ~level:1 ~path:3 in
  Alcotest.(check int64) "level stream is stable" (Rng.bits64 c) (Rng.bits64 d);
  match Rng.for_path_level ~seed:7L ~level:(-1) ~path:0 with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "negative level must be rejected"

let test_welford_half_width () =
  let w = Welford.create () in
  Alcotest.(check bool) "empty accumulator: infinite half-width" true
    (Welford.half_width w ~delta:0.05 = infinity);
  List.iter (Welford.add w) [ 2.0; 4.0; 4.0; 4.0; 5.0; 5.0; 7.0; 9.0 ];
  let hw = Welford.half_width w ~delta:0.05 in
  let lo, hi = Welford.confidence_interval w ~delta:0.05 in
  Alcotest.(check (float 1e-12)) "interval is mean ± half_width" hw
    ((hi -. lo) /. 2.0);
  Alcotest.(check bool) "tighter at lower confidence" true
    (Welford.half_width w ~delta:0.5 < hw)

let test_mlmc_create_invalid () =
  let expect_invalid name f =
    match f () with
    | exception Invalid_argument _ -> ()
    | _ -> Alcotest.failf "%s must be rejected" name
  in
  expect_invalid "empty costs" (fun () ->
      Mlmc.create ~costs:[||] ~delta:0.05 ~eps:0.01 ());
  expect_invalid "non-positive cost" (fun () ->
      Mlmc.create ~costs:[| 0.5; 0.0 |] ~delta:0.05 ~eps:0.01 ());
  expect_invalid "delta out of range" (fun () ->
      Mlmc.create ~costs:[| 1.0 |] ~delta:1.5 ~eps:0.01 ());
  expect_invalid "eps out of range" (fun () ->
      Mlmc.create ~costs:[| 1.0 |] ~delta:0.05 ~eps:0.0 ());
  expect_invalid "warmup below 2" (fun () ->
      Mlmc.create ~warmup:1 ~costs:[| 1.0 |] ~delta:0.05 ~eps:0.01 ())

let test_mlmc_telescoped_interval () =
  (* the telescoped mean is the sum of the per-level means, and the CLT
     half-width is the root-sum-square of the per-level Welford
     half-widths (same z, variances add) *)
  let m = Mlmc.create ~warmup:2 ~costs:[| 0.5; 1.5 |] ~delta:0.05 ~eps:0.01 () in
  let w0 = Welford.create () and w1 = Welford.create () in
  let feed level w x =
    Mlmc.feed m ~level x;
    Welford.add w x
  in
  List.iter (feed 0 w0) [ 0.0; 1.0; 1.0; 0.0; 1.0; 0.0; 1.0; 1.0 ];
  List.iter (feed 1 w1) [ 0.0; 0.0; 1.0; 0.0; 0.0; 0.0 ];
  Alcotest.(check int) "level 0 count" 8 (Mlmc.samples m ~level:0);
  Alcotest.(check int) "level 1 count" 6 (Mlmc.samples m ~level:1);
  Alcotest.(check int) "total" 14 (Mlmc.total_samples m);
  Alcotest.(check (float 1e-12)) "spent cost"
    ((8.0 *. 0.5) +. (6.0 *. 1.5))
    (Mlmc.spent_cost m);
  Alcotest.(check (float 1e-12)) "telescoped mean"
    (Welford.mean w0 +. Welford.mean w1)
    (Mlmc.mean m);
  let hw0 = Welford.half_width w0 ~delta:0.05 in
  let hw1 = Welford.half_width w1 ~delta:0.05 in
  Alcotest.(check (float 1e-12)) "root-sum-square half-width"
    (sqrt ((hw0 *. hw0) +. (hw1 *. hw1)))
    (Mlmc.half_width m);
  let lo, hi = Mlmc.confidence_interval m in
  Alcotest.(check (float 1e-12)) "interval centered on the mean"
    (2.0 *. Mlmc.mean m) (lo +. hi)

let test_mlmc_allocation () =
  (* warmup first: levels fill round-robin-by-first-hungry to the floor *)
  let m = Mlmc.create ~warmup:3 ~costs:[| 1.0; 2.0 |] ~delta:0.05 ~eps:0.05 () in
  Alcotest.(check (option int)) "warmup starts at level 0" (Some 0)
    (Mlmc.next_level m);
  for _ = 1 to 3 do
    Mlmc.feed m ~level:0 1.0
  done;
  Alcotest.(check (option int)) "then level 1" (Some 1) (Mlmc.next_level m);
  for _ = 1 to 3 do
    Mlmc.feed m ~level:1 0.0
  done;
  (* after warmup the greedy step chases variance reduction per cost:
     keep level 1 noiseless and level 0 noisy, and every marginal sample
     goes to level 0 *)
  let rng = Rng.create 3L in
  let hungry = ref 0 in
  let fed = ref 0 in
  while Mlmc.needs_more m && !fed < 50_000 do
    (match Mlmc.next_level m with
    | Some 0 ->
      incr hungry;
      Mlmc.feed m ~level:0 (if Rng.float rng < 0.5 then 1.0 else 0.0)
    | Some _ -> Mlmc.feed m ~level:1 0.0
    | None -> ());
    incr fed
  done;
  Alcotest.(check bool) "converged" true (not (Mlmc.needs_more m));
  Alcotest.(check bool) "noisy cheap level got the samples" true
    (Mlmc.samples m ~level:0 > 4 * Mlmc.samples m ~level:1);
  (* greedy must land in the neighbourhood of the closed-form target *)
  let n0 = Mlmc.samples m ~level:0 in
  let t0 = Mlmc.target_samples m ~level:0 in
  Alcotest.(check bool)
    (Printf.sprintf "near the closed-form allocation (%d vs %d)" n0 t0)
    true
    (float_of_int (abs (n0 - t0)) /. float_of_int t0 < 0.25)

let test_mlmc_restore () =
  let m = Mlmc.create ~warmup:2 ~costs:[| 0.25; 1.0 |] ~delta:0.1 ~eps:0.02 () in
  let rng = Rng.create 17L in
  for _ = 1 to 250 do
    Mlmc.feed m ~level:0 (if Rng.float rng < 0.3 then 1.0 else 0.0);
    if Rng.float rng < 0.4 then
      Mlmc.feed m ~level:1 (if Rng.float rng < 0.1 then 1.0 else 0.0)
  done;
  let m' = Mlmc.create ~warmup:2 ~costs:[| 0.25; 1.0 |] ~delta:0.1 ~eps:0.02 () in
  for l = 0 to 1 do
    let n, mean, m2 = Mlmc.level_state m ~level:l in
    Mlmc.restore_level m' ~level:l ~n ~mean ~m2
  done;
  Alcotest.(check (float 0.0)) "mean is bit-identical" (Mlmc.mean m)
    (Mlmc.mean m');
  Alcotest.(check (float 0.0)) "half-width is bit-identical"
    (Mlmc.half_width m) (Mlmc.half_width m');
  Alcotest.(check (option int)) "same next allocation" (Mlmc.next_level m)
    (Mlmc.next_level m');
  Alcotest.(check (float 0.0)) "same spent cost" (Mlmc.spent_cost m)
    (Mlmc.spent_cost m')

(* --- estimator merge / of_counts edge cases --- *)

let test_estimator_merge_edges () =
  let full = Estimator.of_counts ~trials:40 ~successes:13 in
  let empty = Estimator.create () in
  let m = Estimator.merge full empty in
  Alcotest.(check int) "zero-trial merge: trials" 40 (Estimator.trials m);
  Alcotest.(check int) "zero-trial merge: successes" 13 (Estimator.successes m);
  Alcotest.(check (float 0.0)) "zero-trial merge keeps the mean"
    (Estimator.mean full) (Estimator.mean m);
  let a = Estimator.of_counts ~trials:10 ~successes:3 in
  let b = Estimator.of_counts ~trials:30 ~successes:29 in
  let ab = Estimator.merge a b and ba = Estimator.merge b a in
  Alcotest.(check int) "commutative: trials" (Estimator.trials ab)
    (Estimator.trials ba);
  Alcotest.(check int) "commutative: successes" (Estimator.successes ab)
    (Estimator.successes ba);
  Alcotest.(check (float 0.0)) "commutative: mean" (Estimator.mean ab)
    (Estimator.mean ba);
  Alcotest.(check int) "merge adds trials" 40 (Estimator.trials ab);
  Alcotest.(check int) "merge adds successes" 32 (Estimator.successes ab);
  (* merging is not mutation: the inputs keep their own counts *)
  Alcotest.(check int) "inputs untouched" 10 (Estimator.trials a)

let test_estimator_of_counts_rejects () =
  let expect_invalid name f =
    match f () with
    | exception Invalid_argument _ -> ()
    | _ -> Alcotest.failf "%s must be rejected" name
  in
  expect_invalid "negative trials" (fun () ->
      Estimator.of_counts ~trials:(-1) ~successes:0);
  expect_invalid "negative successes" (fun () ->
      Estimator.of_counts ~trials:5 ~successes:(-2));
  expect_invalid "successes above trials" (fun () ->
      Estimator.of_counts ~trials:5 ~successes:6);
  (* the boundary cases are legal *)
  let z = Estimator.of_counts ~trials:0 ~successes:0 in
  Alcotest.(check (float 0.0)) "empty estimator mean" 0.0 (Estimator.mean z);
  let all = Estimator.of_counts ~trials:7 ~successes:7 in
  Alcotest.(check (float 0.0)) "all-successes mean" 1.0 (Estimator.mean all)

let suite =
  [
    Alcotest.test_case "rng determinism" `Quick test_rng_determinism;
    Alcotest.test_case "rng per-path streams" `Quick test_rng_per_path_streams;
    Alcotest.test_case "rng golden values" `Quick test_rng_golden;
    Alcotest.test_case "rng float range" `Quick test_rng_float_range;
    Alcotest.test_case "rng int range" `Quick test_rng_int_range;
    Alcotest.test_case "rng uniformity" `Slow test_rng_uniformity;
    Alcotest.test_case "exponential mean" `Slow test_exponential_mean;
    Alcotest.test_case "categorical" `Slow test_categorical;
    Alcotest.test_case "negative parameters rejected" `Quick
      test_negative_params_rejected;
    prop 20 "categorical frequencies track weights" gen_weight_case
      prop_categorical_frequencies;
    prop 500 "exponential_race_n = exponential_race" gen_race_case prop_race_n_is_race;
    Alcotest.test_case "uniform choice" `Quick test_uniform_choice;
    Alcotest.test_case "exponential race" `Slow test_exponential_race;
    Alcotest.test_case "chernoff bound" `Quick test_chernoff_bound;
    Alcotest.test_case "hoeffding inverse" `Quick test_hoeffding_inverse;
    Alcotest.test_case "normal quantile" `Quick test_normal_quantile;
    Alcotest.test_case "estimator" `Quick test_estimator;
    Alcotest.test_case "estimator coverage" `Slow test_estimator_coverage;
    Alcotest.test_case "fixed generators" `Quick test_generators_fixed;
    Alcotest.test_case "chow-robbins" `Quick test_chow_robbins;
    Alcotest.test_case "generator names" `Quick test_generator_names;
    Alcotest.test_case "welford" `Quick test_welford;
    Alcotest.test_case "welford constant" `Quick test_welford_constant;
    Alcotest.test_case "estimator serialization" `Quick
      test_estimator_serialization;
    Alcotest.test_case "welford serialization" `Quick
      test_welford_serialization;
    Alcotest.test_case "generator restore" `Quick test_generator_restore;
    Alcotest.test_case "rng path-level streams" `Quick test_rng_path_levels;
    Alcotest.test_case "welford half-width" `Quick test_welford_half_width;
    Alcotest.test_case "mlmc create validation" `Quick test_mlmc_create_invalid;
    Alcotest.test_case "mlmc telescoped interval" `Quick
      test_mlmc_telescoped_interval;
    Alcotest.test_case "mlmc allocation" `Quick test_mlmc_allocation;
    Alcotest.test_case "mlmc restore" `Quick test_mlmc_restore;
    Alcotest.test_case "estimator merge edges" `Quick test_estimator_merge_edges;
    Alcotest.test_case "estimator of_counts validation" `Quick
      test_estimator_of_counts_rejects;
  ]
