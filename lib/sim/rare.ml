module Rng = Slimsim_stats.Rng
module Welford = Slimsim_stats.Welford

type result = {
  probability : float;
  ci_low : float;
  ci_high : float;
  paths : int;
  hits : int;
  relative_error : float;
  bias : float;
  wall_seconds : float;
}

let estimate ?(seed = 0x0DDBA11L) ?config ?hold ?bias_of net ~goal ~horizon
    ~strategy ~bias ~paths ~delta () =
  if paths <= 0 then invalid_arg "Rare.estimate: paths must be positive";
  if bias <= 0.0 then invalid_arg "Rare.estimate: bias must be positive";
  let cfg =
    match config with
    | Some c -> { c with Path.horizon }
    | None -> Path.default_config ~horizon
  in
  let t0 = Unix.gettimeofday () in
  let c = Slimsim_sta.Compiled.compile net in
  let q = Path.compile_query ?hold c ~goal in
  let s = Slimsim_sta.Compiled.scratch c in
  let factor = match bias_of with Some f -> f | None -> fun _ _ -> bias in
  let ratio = ref 1.0 in
  let weight = (factor, ratio) in
  let w = Welford.create () in
  let hits = ref 0 in
  let rec go i =
    if i >= paths then begin
      let lo, hi = Welford.confidence_interval w ~delta in
      let mean = Welford.mean w in
      Ok
        {
          probability = mean;
          ci_low = Float.max 0.0 lo;
          ci_high = hi;
          paths;
          hits = !hits;
          relative_error = (if mean > 0.0 then (hi -. lo) /. 2.0 /. mean else infinity);
          bias;
          wall_seconds = Unix.gettimeofday () -. t0;
        }
    end
    else
      let rng = Rng.for_path ~seed ~path:i in
      match Path.generate ~weight c s q cfg strategy rng with
      | Ok (Path.Sat _) ->
        incr hits;
        Welford.add w !ratio;
        go (i + 1)
      | Ok _ ->
        Welford.add w 0.0;
        go (i + 1)
      | Error e -> Error e
  in
  go 0

let pp_result ppf r =
  Fmt.pf ppf
    "p = %.3e  [%.3e, %.3e]  (bias %g, %d/%d biased hits, rel.err %.1f%%, %.2fs)"
    r.probability r.ci_low r.ci_high r.bias r.hits r.paths
    (100.0 *. r.relative_error) r.wall_seconds
