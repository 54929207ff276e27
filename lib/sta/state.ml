type t = { locs : int array; vals : Value.t array; time : float }

let env t v = t.vals.(v)
let at_loc t p l = t.locs.(p) = l
let eval t e = Expr.eval ~env:(env t) ~at_loc:(at_loc t) e
let eval_bool t e = Expr.eval_bool ~env:(env t) ~at_loc:(at_loc t) e

let proc_active (net : Network.t) t p = eval_bool t net.meta.(p).active_when

let apply_flows (net : Network.t) t =
  if Array.length net.flows = 0 then t
  else begin
    let vals = Array.copy t.vals in
    let tmp = { t with vals } in
    Array.iter
      (fun (f : Network.flow) -> vals.(f.target) <- eval tmp f.expr)
      net.flows;
    { t with vals }
  end

let initial (net : Network.t) =
  let locs = Array.map (fun p -> p.Automaton.initial_loc) net.procs in
  let vals = Array.map (fun (v : Network.var_info) -> v.init) net.vars in
  apply_flows net { locs; vals; time = 0.0 }

(* [compare]-equality, the semantics of the polymorphic [Hashtbl]:
   [0.0] equals [-0.0] and NaN equals NaN. *)
let equal_timeless t1 t2 = compare t1.locs t2.locs = 0 && compare t1.vals t2.vals = 0

(* Every location and every value is mixed in: the polymorphic
   [Hashtbl.hash] stops after 10 meaningful words, which for a network
   of a few dozen processes hashes only a prefix of the location vector.
   [Hashtbl.hash] on a float folds [-0.0] onto [0.0] and all NaNs onto
   one value, which keeps the hash consistent with [equal_timeless]. *)
let hash_timeless t =
  let mix h x = (h * 0x100000001b3) lxor x in
  let h = ref (Array.length t.locs) in
  Array.iter (fun l -> h := mix !h l) t.locs;
  Array.iter
    (fun v ->
      h :=
        mix !h
          (match v with
          | Value.Bool b -> Bool.to_int b
          | Value.Int n -> n
          | Value.Real f -> Hashtbl.hash f))
    t.vals;
  Hashtbl.hash !h

module Tbl = Hashtbl.Make (struct
  type nonrec t = t

  let equal = equal_timeless
  let hash = hash_timeless
end)

let pp (net : Network.t) ppf t =
  Fmt.pf ppf "@[<v>t = %g@," t.time;
  Array.iteri
    (fun p (proc : Automaton.t) ->
      Fmt.pf ppf "%s @ %s%s@," proc.proc_name
        proc.locations.(t.locs.(p)).loc_name
        (if proc_active net t p then "" else " (inactive)"))
    net.procs;
  Array.iteri
    (fun v (info : Network.var_info) ->
      Fmt.pf ppf "%s = %a@," info.var_name Value.pp t.vals.(v))
    net.vars;
  Fmt.pf ppf "@]"
