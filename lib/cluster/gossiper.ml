module Instrument = Gossip_util.Instrument

type t = Thread.t

let start ~membership ~transport ?(interval_ms = 500) ~stopping () =
  if interval_ms < 1 then
    invalid_arg "Gossiper.start: interval_ms must be >= 1";
  Thread.create
    (fun () ->
      let interval_s = float_of_int interval_ms /. 1000.0 in
      while not (stopping ()) do
        (try
           Membership.tick membership ~call:(fun addr op ->
               Transport.call transport addr op)
         with _ -> Instrument.add "cluster.tick_errors" 1);
        (* sleep in slices so shutdown never waits a whole interval *)
        let remaining = ref interval_s in
        while !remaining > 0.0 && not (stopping ()) do
          let slice = Float.min 0.05 !remaining in
          Thread.delay slice;
          remaining := !remaining -. slice
        done
      done)
    ()

let join = Thread.join
