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
