package main

import (
	"fmt"

	"fixture/internal/a"
	"fixture/internal/b"
)

func main() {
	a.FWait()
	fmt.Println(b.Helper(), a.Live())
	fmt.Println(a.Configure(a.Options{Literal: 2}))
}
