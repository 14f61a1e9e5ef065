package a

import "testing"

func TestOwn(t *testing.T) {
	OwnTestOnly()
	ownTestHelper()
	Configure(Options{OwnTestSet: 1})
}
