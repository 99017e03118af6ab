(* The benchmark's workload loop, built from the simulator's public
   API only: protocol joins, a bulk load, then a closed loop of client
   fibers on the concurrent runtime with the configured observers and
   fault schedule. It simulates the same program as [Driver.run] (the
   tests hold it to that) but owns every call, so it can time set-up
   and bracket each layer from outside the library. *)

open Baton
module Rng = Baton_util.Rng
module Zipf = Baton_util.Zipf
module Sorted_store = Baton_util.Sorted_store
module Trace = Baton_obs.Trace
module Oracle = Baton_obs.Oracle
module Heat = Baton_obs.Heat
module Series = Baton_obs.Series
module Metrics = Baton_sim.Metrics
module Bus = Baton_sim.Bus
module Engine = Baton_sim.Engine
module Partition = Baton_sim.Partition
module Datagen = Baton_workload.Datagen
module Runtime = Baton_runtime.Runtime
module Driver = Baton_runtime.Driver

(* [Driver.run] derives every input stream from its one seed. The
   benchmark splits them in two, so that a workload can pin its scenario
   while the run seed varies the client traffic over it. *)
type seeds = {
  scenario : int;  (** the network (join routing, op origins), its keys, fault episodes *)
  client : int;  (** op kinds, exact keys, ranges, insert keys, leaving peers *)
}

let same_seeds s = { scenario = s; client = s }

type config = {
  n : int;
  ops : int;
  mix : Driver.mix;
  observers : bool;
      (** [bench-run]'s default observers (monitor every
          [monitor_every_ms], series every [series_every_ms], heat) plus
          the oracle *)
  faults : Partition.schedule;
  seeds : seeds;
}

(* [bench-run]'s defaults, which no workload varies. *)
let keys_per_node = 20
let clients = 32
let monitor_every_ms = 2000.
let series_every_ms = 1000.
let range_span = 2_000_000
let theta = 1.0

type op = Exact of int | Range of int * int | Insert of int | Join | Leave

let kinds = [| "exact"; "range"; "insert"; "join"; "leave" |]

(* The message kinds each op kind sends. *)
let kind_msgs =
  [|
    [ Msg.search_exact ];
    [ Msg.search_range ];
    [ Msg.insert ];
    [ Msg.join_search; Msg.join_update ];
    [ Msg.leave_search; Msg.leave_update ];
  |]

let kind_index = function
  | Exact _ -> 0
  | Range _ -> 1
  | Insert _ -> 2
  | Join -> 3
  | Leave -> 4

(* The op plan, drawn exactly as [Driver.run] draws it. *)
let plan_ops cfg ~keys =
  let m = cfg.mix in
  let total_w = m.exact_w + m.range_w + m.insert_w + m.churn_w in
  let dlo = Datagen.domain_lo and dhi = Datagen.domain_hi in
  let rng = Rng.create ((cfg.seeds.client * 131) + 9) in
  let zipf = Zipf.create ~n:(Array.length keys) ~theta in
  let churn_flip = ref false in
  Array.init cfg.ops (fun _ ->
      let r = Rng.int rng total_w in
      if r < m.exact_w then Exact keys.(Zipf.sample zipf rng - 1)
      else if r < m.exact_w + m.range_w then begin
        let lo = Rng.int_in_range rng ~lo:dlo ~hi:(max dlo (dhi - range_span)) in
        Range (lo, lo + range_span)
      end
      else if r < m.exact_w + m.range_w + m.insert_w then
        Insert (Rng.int_in_range rng ~lo:dlo ~hi:(dhi - 1))
      else begin
        churn_flip := not !churn_flip;
        if !churn_flip then Join else Leave
      end)

type result = {
  setup_s : float;
  measured_s : float;  (** host wall clock of the measured phase *)
  issued : int;
  completed : int;
  failed : int;
  messages : int;
  duration_ms : float;  (** simulated instant the last op finished *)
  latencies : float list array;
      (** simulated ms of each completed op, per kind in [kinds] order *)
  op_calls : int array;  (** completed ops per kind *)
  op_msgs : int array;
      (** measured-phase messages of each kind's message kinds
          ([kind_msgs]); counted by kind because an op's own [msgs]
          field is a global counter delta that other fibers' traffic
          leaks into *)
  setup_join_msgs : int;
  maint_msgs : int;
  restructure_msgs : int;
  retries : int;
  partition_drops : int;
  gray_drops : int;
  crashes : int;
  repairs : int;
  monitor_ticks : int;
  gc_before : Gc.stat;  (** [Gc.quick_stat] around the measured phase *)
  gc_after : Gc.stat;
  oracle : Oracle.t option;
  lookup_misses : int;  (** sampled loaded keys a post-run lookup missed *)
  layers_s : float;
      (** traced runs: the measured phase's self time summed over every
          layer; [0.] untraced *)
  residual_s : float;
      (** traced runs: measured-phase host time outside every engine
          dispatch; [0.] untraced *)
}

let span tr l f = match tr with None -> f () | Some sp -> Spans.span sp l f

(* Build the network by protocol joins, as [Network.build] does, and
   bulk-load the keys. *)
let setup cfg tr =
  let net = Network.create ~seed:cfg.seeds.scenario () in
  ignore (Join.join_new_network net : Node.t);
  for _ = 2 to cfg.n do
    ignore (span tr Spans.join (fun () -> Join.join net ~via:(Net.random_peer net)) : Join.stats)
  done;
  let metrics = Net.metrics net in
  let join_msgs = List.fold_left (fun a k -> a + Metrics.kind_count metrics k) 0 kind_msgs.(3) in
  let keys =
    span tr Spans.datagen (fun () ->
        Datagen.take
          (Datagen.uniform (Rng.create ((cfg.seeds.scenario * 31) + 7)))
          (keys_per_node * cfg.n))
  in
  span tr Spans.bulk_insert (fun () ->
      ignore
        (Update.bulk_insert net ~from:(Net.random_peer net) (Array.to_list keys)
          : Update.bulk_stats));
  (net, keys, join_msgs)

let live_peers net =
  List.filter
    (fun (p : Node.t) -> not (Bus.is_failed (Net.bus net) p.Node.id))
    (Net.peers net)

(* Sample a live internal node at level >= 2 and take its whole subtree
   (a single random live peer in degenerate trees): the same victim
   groups [Driver.run] crashes. *)
let pick_subtree net srng =
  let live =
    List.sort (fun (a : Node.t) (b : Node.t) -> compare a.Node.id b.Node.id)
      (live_peers net)
  in
  let internal =
    List.filter (fun (p : Node.t) -> Node.level p >= 2 && not (Node.is_leaf p)) live
  in
  match (internal, live) with
  | [], [] -> [||]
  | [], _ -> [| (List.nth live (Rng.int srng (List.length live))).Node.id |]
  | _, _ ->
    let top = List.nth internal (Rng.int srng (List.length internal)) in
    let rec collect pos acc =
      match Wiring.occupant net pos with
      | None -> acc
      | Some (c : Node.t) ->
        let acc = collect (Position.left_child pos) (c.Node.id :: acc) in
        collect (Position.right_child pos) acc
    in
    collect top.Node.pos []
    |> List.filter (fun id -> not (Bus.is_failed (Net.bus net) id))
    |> List.sort_uniq compare |> Array.of_list

let peers_in_order net () =
  live_peers net
  |> List.sort (fun (a : Node.t) (b : Node.t) ->
         compare a.Node.range.Range.lo b.Node.range.Range.lo)
  |> List.map (fun (p : Node.t) -> p.Node.id)
  |> Array.of_list

(* One repetition: set-up, then the measured phase. [tr] records spans
   around every layer call when given. [sample_lookups] loaded keys are
   looked up after the run, outside every timed phase. *)
let run ?tr ?(sample_lookups = 0) cfg =
  let t0 = Unix.gettimeofday () in
  let net, keys, setup_join_msgs =
    span tr Spans.setup (fun () -> setup cfg tr)
  in
  let setup_s = Unix.gettimeofday () -. t0 in
  let rt = Runtime.create net in
  let engine = Runtime.engine rt in
  let plan = plan_ops cfg ~keys in
  let membership = Runtime.Lock.create () in
  let crng = Rng.create ((cfg.seeds.client * 17) + 23) in
  (* A fiber suspends inside these three calls; traced runs close its
     open spans first and reopen them when it resumes. *)
  let with_lock f =
    match tr with
    | None -> Runtime.Lock.with_lock membership f
    | Some sp ->
      let saved = Spans.suspend sp in
      Runtime.Lock.acquire membership;
      Spans.resume sp saved;
      Fun.protect ~finally:(fun () -> Runtime.Lock.release membership) f
  in
  let par : Search.par =
    match tr with
    | None -> fun l r -> Runtime.both l r
    | Some sp ->
      fun l r ->
        let saved = Spans.suspend sp in
        let op = Spans.op sp in
        let child f () =
          Spans.set_op sp op;
          f ()
        in
        let v = Runtime.both (child l) (child r) in
        Spans.resume sp saved;
        v
  in
  let oracle =
    if not cfg.observers then None
    else begin
      let o = Oracle.create () in
      Oracle.seed_keys o (Array.to_list keys);
      let tracer = Trace.create () in
      Trace.use_engine tracer engine;
      Net.set_tracer net (Some tracer);
      Some o
    end
  in
  let heat =
    if not cfg.observers then None
    else begin
      let dom = Net.domain net in
      let h = Heat.create ~lo:dom.Range.lo ~hi:dom.Range.hi () in
      Heat.set_clock h (Some (fun () -> Engine.now engine));
      Net.set_heat net (Some h);
      Some h
    end
  in
  let crashes = ref 0 and repairs = ref 0 in
  if cfg.faults <> [] then begin
    Net.set_suspicion_repair net true;
    Net.set_repair_serializer net
      (Some
         (fun f ->
           with_lock (fun () ->
               incr repairs;
               span tr Spans.repair f)));
    let crash id =
      match Net.peer_opt net id with
      | None -> ()
      | Some (victim : Node.t) ->
        incr crashes;
        Option.iter
          (fun o ->
            Oracle.note_lost o ~time:(Engine.now engine)
              (Sorted_store.to_list victim.Node.store))
          oracle;
        Failure.crash net victim
    in
    Partition.install ~bus:(Net.bus net) ~engine
      ~seed:((cfg.seeds.scenario * 67) + 5)
      ~hooks:
        {
          Partition.peers_in_order = peers_in_order net;
          pick_subtree = pick_subtree net;
          crash;
          note = ignore;
        }
      cfg.faults
  end;
  let completed = ref 0 and failed = ref 0 and last_done = ref 0. in
  let latencies = Array.make (Array.length kinds) [] in
  let op_calls = Array.make (Array.length kinds) 0 in
  let execute op =
    match op with
    | Exact k ->
      let r = Search.lookup net ~from:(Net.random_peer net) k in
      `Lookup (k, r)
    | Range (lo, hi) ->
      let r = Search.range ~par net ~from:(Net.random_peer net) ~lo ~hi in
      `Ranged (lo, hi, r)
    | Insert k ->
      ignore (Update.insert net ~from:(Net.random_peer net) k : Update.insert_stats);
      `Inserted k
    | Join ->
      with_lock (fun () -> span tr Spans.join (fun () -> ignore (Network.join net : int)));
      `Membership
    | Leave ->
      with_lock (fun () ->
          span tr Spans.leave (fun () ->
              if Net.size net > 2 then Network.leave net (Rng.pick crng (Net.live_ids net))));
      `Membership
  in
  let latest_trace () =
    match Net.tracer net with
    | None -> None
    | Some t -> Option.map (Trace.analyze ?top:None) (Trace.latest t)
  in
  let judge o ~started ~finished = function
    | `Lookup (k, (r : Search.result)) ->
      ignore
        (Oracle.check_exact o ?trace:(latest_trace ()) ~started ~finished ~key:k
           ~found:r.found ~complete:r.complete ()
          : Oracle.verdict)
    | `Ranged (lo, hi, (r : Search.result)) ->
      ignore
        (Oracle.check_range o ?trace:(latest_trace ()) ~started ~finished ~lo ~hi
           ~keys:r.keys ~complete:r.complete ~holes:r.holes ()
          : Oracle.verdict)
    | `Inserted k -> Oracle.commit_insert o k ~started ~finished
    | `Membership -> ()
  in
  let run_op i =
    let op = plan.(i) in
    let ki = kind_index op in
    let wall0 = match tr with Some sp -> Spans.set_op sp i; Spans.now () | None -> 0. in
    let started = Runtime.now rt in
    (match (oracle, op) with Some o, Insert k -> Oracle.begin_mutation o k | _ -> ());
    (match execute op with
    | outcome ->
      incr completed;
      let finished = Runtime.now rt in
      last_done := finished;
      latencies.(ki) <- (finished -. started) :: latencies.(ki);
      op_calls.(ki) <- op_calls.(ki) + 1;
      Option.iter
        (fun o -> span tr Spans.oracle (fun () -> judge o ~started ~finished outcome))
        oracle
    | exception _ ->
      (match (oracle, op) with Some o, Insert k -> Oracle.abort_mutation o k | _ -> ());
      incr failed;
      last_done := Runtime.now rt);
    match tr with
    | Some sp -> Spans.async sp (Spans.op_layer kinds.(ki)) ~start:wall0 ~op:i
    | None -> ()
  in
  let next = ref 0 in
  let rec client () =
    let i = !next in
    if i < Array.length plan then begin
      incr next;
      run_op i;
      client ()
    end
  in
  for _ = 1 to min clients cfg.ops do
    Runtime.spawn rt client ~on_done:(fun _ -> ())
  done;
  let monitor_ticks = ref 0 in
  let monitor =
    if not cfg.observers then None
    else begin
      let mon = Monitor.create net in
      Engine.every engine ~period:monitor_every_ms (fun () ->
          incr monitor_ticks;
          span tr Spans.monitor (fun () ->
              ignore (Monitor.tick mon ~time:(Engine.now engine) : Monitor.sample));
          Runtime.live_fibers rt > 0);
      Some mon
    end
  in
  let metrics = Net.metrics net in
  let cp = Metrics.checkpoint metrics in
  (* The series sampler [Driver.run] installs when series are on: the
     same counters, so the benchmark pays the observer's real cost. *)
  if cfg.observers then begin
    let s = Series.create () in
    Engine.every engine ~period:series_every_ms (fun () ->
        span tr Spans.series (fun () ->
            let health_rank =
              match Option.bind monitor Monitor.latest with
              | None -> -1.
              | Some smp -> float_of_int (Monitor.level_rank smp.Monitor.overall)
            in
            Series.record s ~time:(Engine.now engine)
              ([
                 ("completed", float_of_int !completed);
                 ("failed", float_of_int !failed);
                 ("messages", float_of_int (Metrics.since metrics cp));
                 ("cache_messages", float_of_int (Metrics.aux_since metrics cp));
                 ( "cache_hits",
                   float_of_int (Metrics.event_since metrics cp Msg.ev_cache_hit) );
                 ("retries", float_of_int (Metrics.event_since metrics cp Msg.ev_retry));
                 ("live_fibers", float_of_int (Runtime.live_fibers rt));
                 ("pending_events", float_of_int (Engine.pending engine));
                 ("queue_depth_max", float_of_int (Runtime.queue_depth_max rt));
                 ("health_rank", health_rank);
               ]
              @ match heat with None -> [] | Some h -> [ ("heat_skew", Heat.skew h) ]));
        Runtime.live_fibers rt > 0)
  end;
  (* Traced runs bracket every engine dispatch and bus delivery. The
     runtime installs its hop-suspension hook when the run starts, so
     the first dispatch wraps it to close and reopen a fiber's spans
     around each suspension. *)
  (match tr with
  | None -> ()
  | Some sp ->
    let wrapped = ref false in
    Engine.set_probe engine
      (Some
         {
           Engine.before =
             (fun () ->
               if not !wrapped then begin
                 wrapped := true;
                 Net.set_hop_wait net
                   (Option.map
                      (fun (wait : Net.hop_wait) ~src ~dst ~kind ~outcome ->
                        let saved = Spans.suspend sp in
                        wait ~src ~dst ~kind ~outcome;
                        Spans.resume sp saved)
                      (Net.hop_wait net))
               end;
               Spans.set_op sp (-1);
               Spans.push sp Spans.engine);
           after = (fun () -> Spans.pop sp);
         });
    Bus.set_probe (Net.bus net)
      (Some
         {
           Bus.before = (fun () -> Spans.push sp Spans.bus);
           after = (fun () -> Spans.pop sp);
         }));
  let gc_before = Gc.quick_stat () in
  let w0 = Unix.gettimeofday () in
  Option.iter (fun sp -> Spans.start_gaps sp ~at:w0) tr;
  let self0 = Option.fold ~none:0. ~some:Spans.total_self_s tr in
  Runtime.run rt;
  let w1 = Unix.gettimeofday () in
  let layers_s = Option.fold ~none:0. ~some:Spans.total_self_s tr -. self0 in
  let gc_after = Gc.quick_stat () in
  Engine.set_probe engine None;
  Bus.set_probe (Net.bus net) None;
  let kinds_since ks = List.fold_left (fun a k -> a + Metrics.kind_since metrics cp k) 0 ks in
  let result =
    {
      setup_s;
      measured_s = w1 -. w0;
      issued = Array.length plan;
      completed = !completed;
      failed = !failed;
      messages = Metrics.since metrics cp;
      duration_ms = !last_done;
      latencies;
      op_calls;
      op_msgs = Array.map kinds_since kind_msgs;
      setup_join_msgs;
      maint_msgs = kinds_since Msg.maint_kinds;
      restructure_msgs = Metrics.kind_since metrics cp Msg.restructure;
      retries = Metrics.event_since metrics cp Msg.ev_retry;
      partition_drops = Metrics.event_since metrics cp Bus.partition_event;
      gray_drops = Metrics.event_since metrics cp Bus.gray_event;
      crashes = !crashes;
      repairs = !repairs;
      monitor_ticks = !monitor_ticks;
      gc_before;
      gc_after;
      oracle;
      lookup_misses = 0;
      layers_s;
      residual_s = (match tr with None -> 0. | Some sp -> Spans.gaps_s sp ~until:w1);
    }
  in
  (* Outside every timed phase: the loaded keys a seeded sample of
     lookups must still find (reads and inserts never remove one). *)
  let lookup_misses =
    if sample_lookups = 0 then 0
    else begin
      let rng = Rng.create ((cfg.seeds.scenario * 7) + 1) in
      let misses = ref 0 in
      for _ = 1 to sample_lookups do
        let k = keys.(Rng.int rng (Array.length keys)) in
        if not (Search.lookup net ~from:(Net.random_peer net) k).Search.found then
          incr misses
      done;
      !misses
    end
  in
  { result with lookup_misses }
