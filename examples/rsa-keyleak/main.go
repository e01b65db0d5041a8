// RSA key leak demo (Figs. 6 and 7): a modular-exponentiation victim —
// already hardened against FLUSH+RELOAD with an unconditional multiply
// and balanced pointer loads — leaks its private exponent through the
// value predictor, one bit per square-and-multiply iteration.
package main

import (
	"context"
	"fmt"
	"log"

	"vpsec/internal/rsa"
)

func main() {
	cfg := rsa.VictimConfig{
		Base:     0x10001,
		Mod:      0x7fffffed,                                          // odd 31-bit modulus
		Exponent: 0b1011001110101101110010110101100111010110111001011, // 49-bit secret
		ExpBits:  49,
	}

	fmt.Println("victim: square-and-multiply modexp (libgcrypt _gcry_mpi_powm shape,")
	fmt.Println("        unconditional multiply + balanced pointer loads)")
	fmt.Printf("secret exponent: %#x (%d bits)\n\n", cfg.Exponent, cfg.ExpBits)

	res, err := rsa.Attack(context.Background(), cfg, rsa.AttackOptions{Seed: 2026})
	if err != nil {
		log.Fatal(err)
	}

	fmt.Println("receiver's per-iteration observations (Fig. 7):")
	for _, o := range res.Series {
		marker := "fast  (predicted pointer)    -> e_bit 0"
		if o.Cycles > res.Threshold {
			marker = "SLOW  (swap broke prediction) -> e_bit 1"
		}
		fmt.Printf("  iter %2d: %5.0f cycles  %s  [truth: %d]\n", o.Iter, o.Cycles, marker, o.EBit)
	}

	fmt.Printf("\nrecovered exponent: %#x\n", res.Recovered)
	fmt.Printf("bit success rate  : %.1f%% (paper reports 95.7%%)\n", 100*res.BitSuccess)
	fmt.Printf("transmission rate : %.2f Kbps (paper reports 9.65 Kbps)\n", res.RateBps/1000)
	fmt.Printf("victim result OK  : %v (the attack is purely passive)\n", res.ResultOK)
	if res.Recovered == cfg.Exponent {
		fmt.Println("\nfull private exponent recovered.")
	}
}
