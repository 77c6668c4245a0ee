"""Adaptive probing: get the key as soon as the channel allows.

A deployed IoV node does not know its channel's key rate in advance.
This example asks :meth:`VehicleKeyPipeline.establish_key` for short
96-round bursts with up to 8 attempts: an attempt that ends short of a
full 128-bit key probes a fresh burst and pools it with the earlier
ones, and the loop stops at the first key.  It compares against the
fixed-length session on the same scenario.

Run:  python examples/adaptive_probing.py
"""

from repro import ScenarioName, VehicleKeyPipeline


def main() -> None:
    print("adaptive key establishment (V2I urban)")
    print("=" * 48)

    pipeline = VehicleKeyPipeline.for_scenario(ScenarioName.V2I_URBAN, seed=41)
    print("training ...")
    pipeline.train(n_episodes=150, epochs=80, reconciler_epochs=30)

    print("\nfixed-length session (512 rounds):")
    fixed = pipeline.establish_key(episode="fixed")
    print(f"  probing time : {fixed.probing_time_s:8.1f} s")
    print(f"  verified bits: {fixed.session.agreed_bits}")
    print(f"  success      : {fixed.success}")

    print("\nadaptive session (96-round bursts, stop at the first key):")
    adaptive = pipeline.establish_key(episode="adaptive", n_rounds=96, max_attempts=8)
    print(f"  attempts     : {adaptive.attempts}")
    print(f"  probing time : {adaptive.probing_time_s:8.1f} s")
    print(f"  verified bits: {adaptive.session.agreed_bits}")
    print(f"  success      : {adaptive.success}")
    if adaptive.success:
        print(f"  key          : {adaptive.final_key.hex()}")
        saved = fixed.probing_time_s - adaptive.probing_time_s
        if saved > 0:
            print(f"\nadaptive probing saved {saved:.0f} s of airtime on this channel")


if __name__ == "__main__":
    main()
