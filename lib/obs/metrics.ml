(* Counters, log-bucketed histograms and timers for the simulation
   campaign.  The design rule is single-writer cells: every series
   (a metric name plus its labels) is one mutable record owned by
   exactly one domain — workers record into their own labeled children
   (e.g. [worker="3"]) and nothing in the hot path takes a lock or
   touches an atomic except the global on/off flag.  The collector
   merges cells only at collection points (exposition at exit or at a
   checkpoint), after the owning domains have quiesced or with the
   documented mid-run staleness of plain loads: OCaml immediate stores
   cannot tear, so a concurrent reader sees a slightly old count, never
   a corrupt one. *)

(* Observability is off unless a front end asks for it; every recording
   entry point is a single atomic load + branch when disabled. *)
let on = Atomic.make false
let set_enabled v = Atomic.set on v
let enabled () = Atomic.get on

(* 64 log2 buckets: bucket 0 holds observations <= 0, bucket i (1..62)
   holds (2^(i-33), 2^(i-32)], bucket 63 is the overflow.  Covers
   nanoseconds to decades when observations are seconds, and 1 to 2^30
   when they are step counts. *)
let n_buckets = 64

(* Read off the float's exponent bits, not [Float.frexp] (which returns
   a tuple per call).  A normal v = 1.f * 2^(x - 1023) with f <> 0 lies
   strictly between 2^(x - 1023) and 2^(x - 1022): bucket x - 990.  An
   exact power of two 2^(x - 1023) (f = 0) belongs in the bucket whose
   le it is, one below, since bucket bounds are inclusive above.
   Subnormals (x = 0) land in bucket 1 with the smallest normals; +inf
   (x = 2047, f = 0) and NaN (x >= 2047) in the overflow bucket. *)
let bucket_of v =
  if v <= 0.0 then 0
  else begin
    let bits = Int64.bits_of_float v in
    let x = Int64.to_int (Int64.shift_right_logical bits 52) in
    let i =
      if x = 0 then 1
      else if Int64.logand bits 0xF_FFFF_FFFF_FFFFL = 0L then x - 991
      else x - 990
    in
    if i < 1 then 1 else if i > n_buckets - 1 then n_buckets - 1 else i
  end

let bucket_upper i =
  (* upper bound (inclusive) of bucket i, as a Prometheus le label *)
  if i = 0 then "0"
  else if i = n_buckets - 1 then "+Inf"
  else Printf.sprintf "%g" (Float.ldexp 1.0 (i - 32))

type kind = Counter | Gauge | Histogram

type series = {
  name : string;
  help : string;
  labels : (string * string) list;  (* sorted by label name *)
  kind : kind;
  mutable count : int;       (* counter/gauge value / histogram observations *)
  sum : float array;         (* histogram only; one unboxed cell *)
  buckets : int array;       (* histogram only; [||] for counters/gauges *)
}

type counter = series
type gauge = series
type histogram = series

(* Registration is rare (campaign start, one per worker spawn) and
   guarded; recording never takes this mutex. *)
let registry_mutex = Mutex.create ()
let registry : series list ref = ref []

(* The one switch: a series is registered only while metrics are on.
   While they are off, a caller gets the registered series if there is
   one, and otherwise a fresh cell nobody renders — so callers ask for
   their cells unconditionally, and the gate on every recording entry
   point below keeps those cells at zero. *)
let find_or_create ~kind ~labels name ~help =
  let labels = List.sort (fun (a, _) (b, _) -> compare a b) labels in
  Mutex.lock registry_mutex;
  let s =
    match
      List.find_opt
        (fun s -> s.name = name && s.labels = labels && s.kind = kind)
        !registry
    with
    | Some s -> s
    | None ->
      let s =
        {
          name;
          help;
          labels;
          kind;
          count = 0;
          sum = [| 0.0 |];
          buckets =
            (match kind with
            | Counter | Gauge -> [||]
            | Histogram -> Array.make n_buckets 0);
        }
      in
      if Atomic.get on then registry := s :: !registry;
      s
  in
  Mutex.unlock registry_mutex;
  s

let counter ?(labels = []) name ~help = find_or_create ~kind:Counter ~labels name ~help
let gauge ?(labels = []) name ~help = find_or_create ~kind:Gauge ~labels name ~help
let histogram ?(labels = []) name ~help = find_or_create ~kind:Histogram ~labels name ~help

let incr c = if Atomic.get on then c.count <- c.count + 1
let add c n = if Atomic.get on then c.count <- c.count + n

(* A gauge tracks a current level, not a monotone total, so it is set
   rather than bumped; the enabled gate matches every other entry
   point. *)
let set_gauge g v = if Atomic.get on then g.count <- v

let observe h v =
  if Atomic.get on then begin
    h.count <- h.count + 1;
    h.sum.(0) <- h.sum.(0) +. v;
    let b = h.buckets in
    let i = bucket_of v in
    b.(i) <- b.(i) + 1
  end

let time h f =
  if not (Atomic.get on) then f ()
  else begin
    let t0 = Unix.gettimeofday () in
    Fun.protect
      ~finally:(fun () -> observe h (Unix.gettimeofday () -. t0))
      f
  end

let counter_value c = c.count
let histogram_count h = h.count
let histogram_sum h = h.sum.(0)

let reset () =
  Mutex.lock registry_mutex;
  List.iter
    (fun s ->
      s.count <- 0;
      s.sum.(0) <- 0.0;
      Array.fill s.buckets 0 (Array.length s.buckets) 0)
    !registry;
  Mutex.unlock registry_mutex

(* ------------------------------------------------------------------ *)
(* Prometheus text exposition (version 0.0.4): HELP/TYPE per family,
   one line per series, histogram buckets cumulative.  Empty buckets
   are elided — cumulative counts stay correct at every printed le. *)

(* Label values follow the Prometheus exposition rules: only backslash,
   double quote and newline are escaped; everything else — tabs, UTF-8
   multi-byte sequences — passes through verbatim.  OCaml's %S would
   emit decimal escapes like \009 and per-byte escapes for UTF-8, which
   scrapers reject. *)
let escape_label_value v =
  let b = Buffer.create (String.length v + 2) in
  String.iter
    (fun c ->
      match c with
      | '\\' -> Buffer.add_string b {|\\|}
      | '"' -> Buffer.add_string b {|\"|}
      | '\n' -> Buffer.add_string b {|\n|}
      | c -> Buffer.add_char b c)
    v;
  Buffer.contents b

let label_string labels =
  if labels = [] then ""
  else
    "{"
    ^ String.concat ","
        (List.map
           (fun (k, v) -> Printf.sprintf "%s=\"%s\"" k (escape_label_value v))
           labels)
    ^ "}"

let with_label labels k v =
  label_string (List.sort (fun (a, _) (b, _) -> compare a b) ((k, v) :: labels))

let render () =
  Mutex.lock registry_mutex;
  let all = List.rev !registry in
  Mutex.unlock registry_mutex;
  let families =
    (* stable grouping by name, preserving registration order *)
    List.fold_left
      (fun acc s ->
        match List.assoc_opt s.name acc with
        | Some group ->
          group := s :: !group;
          acc
        | None -> acc @ [ (s.name, ref [ s ]) ])
      [] all
  in
  let b = Buffer.create 4096 in
  List.iter
    (fun (name, group) ->
      let series = List.rev !group in
      let first = List.hd series in
      Buffer.add_string b (Printf.sprintf "# HELP %s %s\n" name first.help);
      Buffer.add_string b
        (Printf.sprintf "# TYPE %s %s\n" name
           (match first.kind with
           | Counter -> "counter"
           | Gauge -> "gauge"
           | Histogram -> "histogram"));
      List.iter
        (fun s ->
          match s.kind with
          | Counter | Gauge ->
            Buffer.add_string b
              (Printf.sprintf "%s%s %d\n" name (label_string s.labels) s.count)
          | Histogram ->
            let cum = ref 0 in
            Array.iteri
              (fun i n ->
                cum := !cum + n;
                if n > 0 || i = n_buckets - 1 then
                  Buffer.add_string b
                    (Printf.sprintf "%s_bucket%s %d\n" name
                       (with_label s.labels "le" (bucket_upper i))
                       !cum))
              s.buckets;
            Buffer.add_string b
              (Printf.sprintf "%s_sum%s %.9g\n" name (label_string s.labels) s.sum.(0));
            Buffer.add_string b
              (Printf.sprintf "%s_count%s %d\n" name (label_string s.labels) s.count))
        series)
    families;
  Buffer.contents b

(* Atomic like the checkpoint file: a reader polling the file mid-run
   sees a complete exposition or the previous one, never a torn write.
   Gated like every recording entry point. *)
let write_file file =
  if Atomic.get on then begin
    let tmp = file ^ ".tmp" in
    let oc = open_out tmp in
    Fun.protect
      ~finally:(fun () -> close_out_noerr oc)
      (fun () -> output_string oc (render ()));
    Unix.rename tmp file
  end
