type outcome = (Path.verdict, Path.error) Result.t
type detail = Div of Path.divergence | Err of Path.error

type 'p lease = {
  id : int;
  lo : int;
  hi : int;
  codes : Bytes.t;
  payload : 'p;
  details : (int, detail) Hashtbl.t;
  mutable filled : int;
  mutable owner : int option;
  mutable grants : int;
}

type 'p t = {
  order : 'p lease Queue.t;  (* unconsumed leases, ascending [lo] *)
  by_id : (int, 'p lease) Hashtbl.t;
  mutable pending : 'p lease list;  (* awaiting (re)grant, ascending [lo] *)
  mutable next_id : int;
  mutable next_lo : int;
  mutable size : int;
  payload : int -> 'p;
  mutable spare : 'p lease option;  (* last forgotten lease, for its buffers *)
}

let range_size ~remaining ~workers ~cap =
  match remaining with
  | None -> cap
  | Some r ->
    let per = 4 * workers in
    max 1 (min cap ((r + per - 1) / per))

let create ~base ~size ~payload =
  if size <= 0 then invalid_arg "Lease.create: size";
  {
    order = Queue.create ();
    by_id = Hashtbl.create 64;
    pending = [];
    next_id = 0;
    next_lo = base;
    size;
    payload;
    spare = None;
  }

let grant t ~owner ~limit =
  match t.pending with
  | l :: rest ->
    t.pending <- rest;
    l.owner <- Some owner;
    l.grants <- l.grants + 1;
    l
  | [] ->
    (* a fresh range takes over the buffers of the last one consumed, so
       a long campaign does not churn (and promote) one set per range *)
    let codes, payload, details =
      match t.spare with
      | Some s when Bytes.length s.codes = t.size ->
        t.spare <- None;
        Bytes.fill s.codes 0 t.size '\000';
        Hashtbl.reset s.details;
        (s.codes, s.payload, s.details)
      | _ -> (Bytes.make t.size '\000', t.payload t.size, Hashtbl.create 1)
    in
    let l =
      {
        id = t.next_id;
        lo = t.next_lo;
        hi = max (t.next_lo + 1) (min (t.next_lo + t.size) limit);
        codes;
        payload;
        details;
        filled = 0;
        owner = Some owner;
        grants = 1;
      }
    in
    t.next_id <- t.next_id + 1;
    t.next_lo <- l.hi;
    Hashtbl.replace t.by_id l.id l;
    Queue.push l t.order;
    l

let resize t size =
  if size <= 0 then invalid_arg "Lease.resize: size";
  t.size <- size

let pending t = List.length t.pending
let find t id = Hashtbl.find_opt t.by_id id
let frontier t = t.next_lo

let carve_limit ~cursor ~remaining =
  match remaining with Some r -> cursor + r | None -> max_int
let complete l = l.filled >= l.hi - l.lo

let outstanding t =
  Queue.fold
    (fun acc l -> if complete l then acc else (l.id, l.lo, l.hi) :: acc)
    [] t.order
  |> List.rev

let held t ~owner =
  Queue.fold (fun n l -> if l.owner = Some owner then n + 1 else n) 0 t.order

let fail_owner t w =
  let lost =
    Queue.fold
      (fun acc l -> if l.owner = Some w && not (complete l) then l :: acc else acc)
      [] t.order
  in
  List.iter (fun l -> l.owner <- None) lost;
  (* keep pending sorted by lo so regrants preserve consumption order *)
  t.pending <- List.sort (fun a b -> compare a.lo b.lo) (t.pending @ lost);
  List.length lost

let rec head t ~cursor =
  match Queue.peek_opt t.order with
  | Some l when l.hi <= cursor ->
    (* fully consumed: forget it *)
    ignore (Queue.pop t.order);
    Hashtbl.remove t.by_id l.id;
    t.spare <- Some l;
    head t ~cursor
  | h -> h

let banked t ~cursor =
  Queue.fold (fun n l -> n + max 0 (l.filled - max 0 (cursor - l.lo))) 0 t.order

(* --- verdict class codec --- *)

let code = function
  | Ok (Path.Sat _) -> 's'
  | Ok Path.Unsat_horizon -> 'h'
  | Ok Path.Unsat_deadlock -> 'd'
  | Ok Path.Unsat_timelock -> 't'
  | Ok (Path.Unsat_violated _) -> 'v'
  | Ok (Path.Diverged _) -> 'g'
  | Error _ -> 'e'

let store l path o =
  Bytes.unsafe_set l.codes (path - l.lo) (code o);
  match o with
  | Ok (Path.Diverged d) -> Hashtbl.replace l.details path (Div d)
  | Error e -> Hashtbl.replace l.details path (Err e)
  | Ok _ -> ()

(* The reconstruction drops payloads the collector never reads (Sat's
   hit time, the violation time): [Campaign.route] matches on the
   constructor alone, so tallies, generator feeds and policies — and
   therefore the estimate — are bit-identical to the in-process run. *)
let outcome l path =
  match Bytes.get l.codes (path - l.lo) with
  | 's' -> Ok (Ok (Path.Sat 0.0))
  | 'h' -> Ok (Ok Path.Unsat_horizon)
  | 'd' -> Ok (Ok Path.Unsat_deadlock)
  | 't' -> Ok (Ok Path.Unsat_timelock)
  | 'v' -> Ok (Ok (Path.Unsat_violated 0.0))
  | 'g' ->
    Ok
      (Ok
         (Path.Diverged
            (match Hashtbl.find_opt l.details path with
            | Some (Div d) -> d
            | _ -> Path.Step_budget 0)))
  | 'e' ->
    Ok
      (Error
         (match Hashtbl.find_opt l.details path with
         | Some (Err e) -> e
         | _ -> Path.Model_error "worker-reported error"))
  | c -> Error (Printf.sprintf "unknown verdict class %C" c)

let publish l ~upto = l.filled <- upto - l.lo

(* --- batches from worker processes --- *)

let record t ~lease_id ~start verdicts details =
  match Hashtbl.find_opt t.by_id lease_id with
  | None -> `Unknown
  | Some l ->
    let len = String.length verdicts in
    let off = start - l.lo in
    if off < 0 || off + len > l.hi - l.lo then `Gap
    else if off > l.filled then `Gap
    else if off + len <= l.filled then `Duplicate
    else begin
      Bytes.blit_string verdicts 0 l.codes off len;
      let fresh = off + len - l.filled in
      let dup = l.filled - off in
      l.filled <- off + len;
      List.iter
        (fun (p, d) ->
          if p >= l.lo + off + dup && not (Hashtbl.mem l.details p) then
            Hashtbl.replace l.details p d)
        details;
      `New (fresh, dup)
    end
